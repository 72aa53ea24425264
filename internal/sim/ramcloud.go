package sim

import (
	"time"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/rifl"
	"curp/internal/stats"
	"curp/internal/witness"
	"curp/internal/workload"
)

// Mode selects the replication protocol under simulation, matching the
// configurations of the paper's Figures 5, 6, 7, and 12.
type Mode int

const (
	// ModeUnreplicated: no backups, no witnesses (the latency floor).
	ModeUnreplicated Mode = iota
	// ModeOriginal: the base system — every write waits for backup sync
	// before the reply (2 RTTs).
	ModeOriginal
	// ModeCURP: speculative replies + witness recording (1 RTT when
	// commutative).
	ModeCURP
	// ModeAsync: replies before sync, no witnesses — fast but unsafe; the
	// paper's upper bound for CURP throughput.
	ModeAsync
)

// String names the mode like the paper's figure legends.
func (m Mode) String() string {
	switch m {
	case ModeUnreplicated:
		return "Unreplicated"
	case ModeOriginal:
		return "Original"
	case ModeCURP:
		return "CURP"
	case ModeAsync:
		return "Async"
	}
	return "?"
}

// KVParams configures a RAMCloud-like cluster simulation. Defaults are
// calibrated so the simulated medians land near the paper's measurements
// (unreplicated ≈ 6.9µs, CURP f=3 ≈ 7.3µs, original ≈ 13.8µs), but the
// claims under reproduction are the shapes, not the absolute numbers.
type KVParams struct {
	Mode Mode
	// F is the number of backups and witnesses.
	F int
	// Clients is the number of closed-loop clients.
	Clients int
	// Ops is the total number of writes to complete.
	Ops int
	// SyncBatch is the minimum unsynced-op count that triggers a sync
	// (the x-axis of Figure 12). One sync is outstanding at a time, so
	// effective batches grow under load regardless.
	SyncBatch int
	// WriteFraction is the probability an op is a write (1.0 for the
	// write-only figures; 0.5/0.05 for YCSB-A/B).
	WriteFraction float64
	// Keys is the key-space size; Zipfian selects the skewed distribution
	// of Figure 7.
	Keys    uint64
	Zipfian bool
	// ValueSize is the write payload in bytes (100 in the paper).
	ValueSize int
	// Seed makes the run deterministic.
	Seed int64

	// Cost model (zero values take calibrated defaults).
	NetDelay     Time    // one-way network latency (median)
	NetSigma     float64 // lognormal shape of per-message jitter
	NetJitter    Time    // lognormal scale of per-message jitter
	DispatchCost Time    // master dispatch-thread cost per RPC event
	ExecCost     Time    // worker cost per operation
	Workers      int     // master worker threads
	BackupCost   Time    // backup per-sync-RPC processing cost
	WitnessCost  Time    // witness per-record processing cost
	ClientSend   Time    // client per-RPC send cost
	ClientRecv   Time    // client per-response processing cost
}

// withDefaults fills in the calibrated cost model.
func (p KVParams) withDefaults() KVParams {
	def := func(v *Time, d Time) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.NetDelay, 2250*time.Nanosecond)
	def(&p.DispatchCost, 650*time.Nanosecond)
	def(&p.ExecCost, 1000*time.Nanosecond)
	def(&p.BackupCost, 1000*time.Nanosecond)
	def(&p.WitnessCost, 750*time.Nanosecond)
	def(&p.ClientSend, 100*time.Nanosecond)
	def(&p.ClientRecv, 150*time.Nanosecond)
	if p.NetJitter == 0 {
		p.NetJitter = 60 * time.Nanosecond
	}
	if p.NetSigma == 0 {
		p.NetSigma = 0.7
	}
	if p.Workers == 0 {
		p.Workers = 7
	}
	if p.SyncBatch == 0 {
		p.SyncBatch = 50
	}
	if p.Clients == 0 {
		p.Clients = 1
	}
	if p.Ops == 0 {
		p.Ops = 10000
	}
	if p.F == 0 && p.Mode != ModeUnreplicated {
		p.F = 3
	}
	if p.Keys == 0 {
		p.Keys = 1 << 20
	}
	if p.WriteFraction == 0 {
		p.WriteFraction = 1.0
	}
	if p.ValueSize == 0 {
		p.ValueSize = 100
	}
	return p
}

// KVResult aggregates one simulation run.
type KVResult struct {
	Params KVParams
	// WriteLatency is the distribution of client-observed write latency.
	WriteLatency stats.Histogram
	// ReadLatency is the distribution for reads (mixed workloads).
	ReadLatency stats.Histogram
	// Elapsed is the simulated duration of the run.
	Elapsed Time
	// ThroughputOpsPerSec is completed ops over elapsed time.
	ThroughputOpsPerSec float64
	// FastPath counts 1-RTT completions; SyncedByMaster counts 2-RTT
	// conflict-path completions; SlowPath counts explicit sync RPCs.
	FastPath, SyncedByMaster, SlowPath int
	// WitnessRejects counts witness record rejections.
	WitnessRejects int
	// NetworkBytes is total bytes moved, including RPC headers and acks.
	NetworkBytes int64
	// PayloadBytes counts value-carrying copies only — the unit of the
	// paper's §5.2 75%% amplification claim (7 copies vs 4 at f=3).
	PayloadBytes int64
	// GCRPCs counts witness garbage-collection RPCs sent by the master.
	GCRPCs int
	// Syncs counts backup sync rounds; SyncedOps the entries they carried
	// (SyncedOps/Syncs = effective batch, §C.1).
	Syncs, SyncedOps int
}

// kvSim is the wiring of one run.
type kvSim struct {
	sim *Sim
	p   KVParams
	res *KVResult

	dispatch *Resource
	workers  *Pool
	clients  []*Resource
	backups  []*Resource
	wservers []*Resource
	wstate   []*witness.Witness
	mstate   *core.MasterState
	lsn      uint64

	// pendingSynced lists executed-but-unsynced op records for witness gc.
	pendingSynced []witness.GCKey
	syncingNow    bool
	syncWaiters   []syncWaiter

	completed int
	done      bool
	endAt     Time
	seq       rifl.Seq

	keyOf func() uint64
}

type syncWaiter struct {
	target uint64
	fn     func()
}

// opRuntime tracks one client operation in flight.
type opRuntime struct {
	clientID  int
	start     Time
	key       uint64
	id        rifl.RPCID
	isWrite   bool
	synced    bool
	masterAt  Time
	masterOK  bool
	wAccepts  int
	wReplies  int
	needsSync bool
}

// RunKV executes one RAMCloud-style simulation.
func RunKV(p KVParams) *KVResult {
	p = p.withDefaults()
	s := New(p.Seed)
	k := &kvSim{
		sim:      s,
		p:        p,
		res:      &KVResult{Params: p},
		dispatch: &Resource{},
		workers:  NewPool(p.Workers),
		clients:  make([]*Resource, p.Clients),
		mstate: core.NewMasterState(core.MasterConfig{
			SyncBatchSize: p.SyncBatch,
			SyncEveryOp:   p.Mode == ModeOriginal,
		}),
	}
	if p.Mode == ModeOriginal || p.Mode == ModeCURP || p.Mode == ModeAsync {
		for i := 0; i < p.F; i++ {
			k.backups = append(k.backups, &Resource{})
		}
	}
	if p.Mode == ModeCURP {
		for i := 0; i < p.F; i++ {
			k.wservers = append(k.wservers, &Resource{})
			k.wstate = append(k.wstate, witness.MustNew(1, witness.DefaultConfig()))
		}
	}
	if p.Zipfian {
		z := workload.NewScrambledZipfian(p.Keys, workload.DefaultZipfTheta, p.Seed+1)
		k.keyOf = z.Next
	} else {
		u := workload.NewUniform(p.Keys, p.Seed+1)
		k.keyOf = u.Next
	}
	// Start the closed-loop clients, staggered slightly.
	for c := 0; c < p.Clients; c++ {
		c := c
		k.clients[c] = &Resource{}
		s.After(Time(c)*100*time.Nanosecond, func() { k.startOp(c) })
	}
	s.Run(0)
	k.res.Elapsed = k.endAt
	if k.endAt > 0 {
		k.res.ThroughputOpsPerSec = float64(k.completed) / k.endAt.Seconds()
	}
	return k.res
}

// net returns a sampled one-way network delay.
func (k *kvSim) net() Time {
	return k.p.NetDelay + k.sim.LogNormal(k.p.NetJitter, k.p.NetSigma)
}

// msgBytes estimates one message's wire size.
func (k *kvSim) msgBytes(payload int) int64 {
	return int64(payload + 60) // headers
}

func (k *kvSim) startOp(clientID int) {
	if k.done {
		return
	}
	k.seq++
	op := &opRuntime{
		clientID: clientID,
		start:    k.sim.Now(),
		key:      k.keyOf(),
		id:       rifl.RPCID{Client: rifl.ClientID(clientID + 1), Seq: k.seq},
		isWrite:  k.sim.Rand().Float64() < k.p.WriteFraction,
	}
	sendDone := k.sim.Now()
	// Witness record RPCs leave first (writes under CURP only); the
	// update RPC follows. Each send occupies the client's NIC path for
	// ClientSend, so the master RPC departs f send-costs later — the
	// client-side origin of CURP's small per-replica latency overhead
	// (§5.1: +0.4µs at f=3).
	if op.isWrite && k.p.Mode == ModeCURP {
		for i := range k.wservers {
			i := i
			sendDone += k.p.ClientSend
			k.res.NetworkBytes += k.msgBytes(k.p.ValueSize)
			k.res.PayloadBytes += int64(k.p.ValueSize)
			k.sim.At(sendDone+k.net(), func() { k.witnessArrive(op, i) })
		}
	}
	// Master RPC (update or read).
	sendDone += k.p.ClientSend
	k.res.NetworkBytes += k.msgBytes(k.p.ValueSize)
	if op.isWrite {
		k.res.PayloadBytes += int64(k.p.ValueSize)
	}
	k.sim.At(sendDone+k.net(), func() { k.masterArrive(op) })
}

// masterArrive models the master receiving the client RPC.
func (k *kvSim) masterArrive(op *opRuntime) {
	t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
	k.sim.At(t, func() {
		te := k.workers.Acquire(k.sim.Now(), k.p.ExecCost)
		k.sim.At(te, func() { k.masterExecute(op) })
	})
}

// masterExecute runs the operation at the master and decides the reply
// path using the real CURP master state machine.
func (k *kvSim) masterExecute(op *opRuntime) {
	keyHashes := []uint64{op.key}
	if !op.isWrite {
		// Read: if it touches an unsynced key, wait for a sync first.
		if k.p.Mode == ModeCURP || k.p.Mode == ModeAsync {
			if k.mstate.Conflicts(keyHashes, commute.ClassWrite) {
				k.mstate.CountReadBlock()
				k.joinSync(k.mstate.Head(), func() { k.replyToClient(op, true) })
				return
			}
		}
		k.replyToClient(op, true)
		return
	}
	conflict := k.mstate.Conflicts(keyHashes, commute.ClassWrite)
	k.lsn++
	lsn := k.lsn
	k.mstate.NoteMutation(keyHashes, lsn, commute.ClassWrite)
	if k.p.Mode == ModeCURP {
		k.pendingSynced = append(k.pendingSynced, witness.GCKey{KeyHash: op.key, ID: op.id})
	}
	switch k.p.Mode {
	case ModeUnreplicated:
		k.replyToClient(op, true)
	case ModeOriginal:
		// The base system replicates every write with its own set of
		// replication RPCs before replying — no cross-write coalescing
		// (that coalescing is precisely what CURP's decoupled syncs
		// enable, §4.4). This is why the original master handles 4 RPCs
		// per write and saturates its dispatch thread ≈4× earlier.
		k.ownSync(lsn, func() { k.replyToClient(op, true) })
	case ModeAsync, ModeCURP:
		if conflict {
			k.joinSync(lsn, func() {
				op.synced = true
				k.replyToClient(op, true)
			})
			return
		}
		k.replyToClient(op, false)
		if k.mstate.NeedsBatchSync() {
			k.maybeStartSync()
		}
	}
}

// replyToClient sends the master's response (synced tags the conflict
// path).
func (k *kvSim) replyToClient(op *opRuntime, synced bool) {
	op.synced = op.synced || synced
	t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
	k.res.NetworkBytes += k.msgBytes(16)
	k.sim.At(t+k.net(), func() {
		// Response processing occupies the client thread; with f witness
		// replies arriving around the same time this queueing is the
		// paper's ≈0.4µs client-side overhead for f=3 (§5.1).
		tc := k.clients[op.clientID].Acquire(k.sim.Now(), k.p.ClientRecv)
		k.sim.At(tc, func() {
			op.masterOK = true
			op.masterAt = k.sim.Now()
			k.clientProgress(op)
		})
	})
}

// witnessArrive models one witness processing a record RPC.
func (k *kvSim) witnessArrive(op *opRuntime, i int) {
	t := k.wservers[i].Acquire(k.sim.Now(), k.p.WitnessCost)
	k.sim.At(t, func() {
		res := k.wstate[i].Record(1, []uint64{op.key}, op.id, nil, commute.ClassWrite)
		if !res.Ok() {
			k.res.WitnessRejects++
		}
		k.res.NetworkBytes += k.msgBytes(8)
		k.sim.At(k.sim.Now()+k.net(), func() {
			tc := k.clients[op.clientID].Acquire(k.sim.Now(), k.p.ClientRecv)
			k.sim.At(tc, func() {
				op.wReplies++
				if res.Ok() {
					op.wAccepts++
				}
				k.clientProgress(op)
			})
		})
	})
}

// clientProgress applies the CURP completion rule at the client.
func (k *kvSim) clientProgress(op *opRuntime) {
	if !op.masterOK {
		return
	}
	expect := 0
	if op.isWrite && k.p.Mode == ModeCURP && !op.synced {
		expect = len(k.wservers)
	}
	if op.synced || !op.isWrite || k.p.Mode != ModeCURP {
		k.completeOp(op)
		return
	}
	if op.wReplies < expect {
		return
	}
	if op.wAccepts == expect {
		k.completeOp(op)
		return
	}
	// Slow path: sync RPC to the master (one extra RTT).
	if op.needsSync {
		return
	}
	op.needsSync = true
	k.res.SlowPath++
	k.res.NetworkBytes += k.msgBytes(8)
	k.sim.At(k.sim.Now()+k.p.ClientSend+k.net(), func() {
		t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
		k.sim.At(t, func() {
			k.joinSync(k.mstate.Head(), func() {
				t2 := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
				k.res.NetworkBytes += k.msgBytes(8)
				k.sim.At(t2+k.net(), func() { k.completeOp(op) })
			})
		})
	})
}

// completeOp finishes the op at the client and starts the next one.
func (k *kvSim) completeOp(op *opRuntime) {
	end := k.sim.Now()
	lat := end - op.start
	if op.isWrite {
		k.res.WriteLatency.Record(int64(lat))
		if k.p.Mode == ModeCURP {
			switch {
			case op.needsSync:
				// counted at issue time
			case op.synced:
				k.res.SyncedByMaster++
			default:
				k.res.FastPath++
			}
		}
	} else {
		k.res.ReadLatency.Record(int64(lat))
	}
	k.completed++
	if k.completed >= k.p.Ops {
		if !k.done {
			k.done = true
			k.endAt = end
		}
		return
	}
	clientID := op.clientID
	k.sim.At(end, func() { k.startOp(clientID) })
}

// ownSync replicates one op's entries with a dedicated RPC set (original
// RAMCloud behaviour): F appends, F acks, then fn.
func (k *kvSim) ownSync(lsn uint64, fn func()) {
	remaining := len(k.backups)
	if remaining == 0 {
		fn()
		return
	}
	for i := range k.backups {
		i := i
		t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
		k.res.NetworkBytes += k.msgBytes(k.p.ValueSize + 40)
		k.res.PayloadBytes += int64(k.p.ValueSize)
		k.sim.At(t+k.net(), func() {
			tb := k.backups[i].Acquire(k.sim.Now(), k.p.BackupCost)
			k.res.NetworkBytes += k.msgBytes(8)
			k.sim.At(tb+k.net(), func() {
				td := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
				k.sim.At(td, func() {
					remaining--
					if remaining == 0 {
						k.mstate.NoteSync(lsn)
						k.res.Syncs++
						k.res.SyncedOps++
						fn()
					}
				})
			})
		})
	}
}

// joinSync registers fn to run once every entry up to target is on all
// backups, starting a sync round if none is active.
func (k *kvSim) joinSync(target uint64, fn func()) {
	if k.mstate.SyncedLSN() >= target {
		fn()
		return
	}
	k.syncWaiters = append(k.syncWaiters, syncWaiter{target: target, fn: fn})
	k.maybeStartSync()
}

// maybeStartSync starts a sync round if none is outstanding (the paper's
// single-outstanding-sync discipline, which batches naturally, §C.1).
func (k *kvSim) maybeStartSync() {
	if k.syncingNow || len(k.backups) == 0 {
		return
	}
	head := k.mstate.Head()
	if head <= k.mstate.SyncedLSN() {
		return
	}
	k.syncingNow = true
	covered := head
	batch := int(head - k.mstate.SyncedLSN())
	k.res.Syncs++
	k.res.SyncedOps += batch
	gcKeys := k.pendingSynced
	k.pendingSynced = nil

	remaining := len(k.backups)
	for i := range k.backups {
		i := i
		t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
		k.res.NetworkBytes += k.msgBytes(batch * (k.p.ValueSize + 40))
		k.res.PayloadBytes += int64(batch * k.p.ValueSize)
		k.sim.At(t+k.net(), func() {
			tb := k.backups[i].Acquire(k.sim.Now(), k.p.BackupCost)
			k.res.NetworkBytes += k.msgBytes(8)
			k.sim.At(tb+k.net(), func() {
				td := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
				k.sim.At(td, func() {
					remaining--
					if remaining > 0 {
						return
					}
					k.finishSync(covered, gcKeys)
				})
			})
		})
	}
}

// finishSync completes a sync round: advance the synced position, wake
// waiters, garbage-collect witnesses, and chain the next round if needed.
func (k *kvSim) finishSync(covered uint64, gcKeys []witness.GCKey) {
	k.mstate.NoteSync(covered)
	var still []syncWaiter
	for _, w := range k.syncWaiters {
		if w.target <= covered {
			w.fn()
		} else {
			still = append(still, w)
		}
	}
	k.syncWaiters = still
	// Witness gc (CURP only): one RPC per witness, batched keys.
	if k.p.Mode == ModeCURP && len(gcKeys) > 0 {
		for i := range k.wservers {
			i := i
			k.res.GCRPCs++
			t := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
			k.res.NetworkBytes += k.msgBytes(len(gcKeys) * 24)
			k.sim.At(t+k.net(), func() {
				tw := k.wservers[i].Acquire(k.sim.Now(), k.p.WitnessCost)
				k.sim.At(tw, func() {
					k.wstate[i].GC(gcKeys)
					k.res.NetworkBytes += k.msgBytes(8)
					k.sim.At(k.sim.Now()+k.net(), func() {
						td := k.dispatch.Acquire(k.sim.Now(), k.p.DispatchCost)
						k.sim.At(td, func() {}) // gc ack occupies dispatch
					})
				})
			})
		}
	}
	k.syncingNow = false
	if len(k.syncWaiters) > 0 || k.mstate.NeedsBatchSync() {
		k.maybeStartSync()
	}
}
