package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"curp"
	"curp/internal/cluster"
	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/shard"
	"curp/internal/transport"
	"curp/internal/witness"
)

// This file times each module's public functions in isolation, with the
// workloads' sizes (30 B keys, 100 B values, 20 k-key working set). The
// numbers are per-layer costs, comparable with the traced ledger's
// stage self-times × calls per op; they gate nothing.

// loopStat is the per-operation cost a timed loop measured.
type loopStat struct {
	ns, allocs, bytes float64
}

// loopWindows is how many equal windows a timed loop is cut into; the
// reported time is the median window, so one window a GC cycle or a
// descheduling landed in does not move it.
const loopWindows = 9

// timeLoop calls fn (batch operations per call) for at least d in total and
// returns the per-operation cost. Allocation counts are process-wide
// deltas: nothing else runs while a layer loop does.
func timeLoop(d time.Duration, batch int, fn func()) loopStat {
	return timeLoopPrepared(d, batch, nil, fn)
}

// timeLoopPrepared is timeLoop with an untimed, uncounted prep call before
// every fn call, for operations that consume their input.
func timeLoopPrepared(d time.Duration, batch int, prep, fn func()) loopStat {
	if prep != nil {
		prep()
	}
	fn() // first call pays lazy initialisation
	var m0, m1 runtime.MemStats
	var mallocs, bytes uint64
	perOp := make([]float64, 0, loopWindows)
	ops := 0
	if prep == nil {
		runtime.ReadMemStats(&m0)
	}
	for w := 0; w < loopWindows; w++ {
		n := 0
		var busy time.Duration
		for busy < d/loopWindows {
			if prep != nil {
				prep()
				runtime.ReadMemStats(&m0)
			}
			start := time.Now()
			fn()
			busy += time.Since(start)
			if prep != nil {
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				bytes += m1.TotalAlloc - m0.TotalAlloc
			}
			n += batch
		}
		perOp = append(perOp, float64(busy)/float64(n))
		ops += n
	}
	if prep == nil {
		runtime.ReadMemStats(&m1)
		mallocs, bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	return loopStat{ns: median(perOp), allocs: float64(mallocs) / float64(ops), bytes: float64(bytes) / float64(ops)}
}

// layerKeys is the working set the store-level loops cycle over.
const layerKeys = 20000

type layerBench struct {
	d    time.Duration // minimum duration of each timed loop
	out  map[string]float64
	keys [][]byte
	val  []byte
}

// runLayers runs every layer loop and returns the metric values by name.
// loop is the minimum duration of each timed loop (0.3 s in full runs).
func runLayers(ctx context.Context, loop time.Duration) (map[string]float64, error) {
	b := &layerBench{d: loop, out: map[string]float64{}, val: make([]byte, valueSize)}
	b.keys = make([][]byte, layerKeys)
	for i := range b.keys {
		b.keys[i] = makeKey('l', 1, i)
	}
	fillValue(b.val, 7)
	for _, step := range []func(context.Context) error{
		b.transport, b.rpc, b.kv, b.witness, b.rifl, b.core,
		b.clusterAndShard, b.txn, b.dstore, b.observability,
	} {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	b.out["host.nproc"] = float64(runtime.NumCPU())
	return b.out, nil
}

// pingPong is a 256 B echo over one raw memnet connection: the transport
// alone, below the rpc framing.
type pingPong struct {
	l    io.Closer
	conn io.ReadWriteCloser
	done chan error
	buf  []byte
}

func newPingPong(nw *transport.MemNetwork) (*pingPong, error) {
	l, err := nw.Listen("pp-server")
	if err != nil {
		return nil, err
	}
	pp := &pingPong{l: l, done: make(chan error, 1), buf: make([]byte, 256)}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			pp.done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 256)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				pp.done <- nil // the client closed
				return
			}
			if _, err := conn.Write(buf); err != nil {
				pp.done <- err
				return
			}
		}
	}()
	if pp.conn, err = nw.Dial("pp-client", "pp-server"); err != nil {
		l.Close()
		return nil, err
	}
	return pp, nil
}

// roundTrip sends 256 B and waits for the echo: two hops.
func (pp *pingPong) roundTrip() error {
	if _, err := pp.conn.Write(pp.buf); err != nil {
		return err
	}
	_, err := io.ReadFull(pp.conn, pp.buf)
	return err
}

// close stops the echo goroutine and waits for it.
func (pp *pingPong) close() error {
	pp.conn.Close()
	err := <-pp.done
	pp.l.Close()
	return err
}

// timerFloorUs is the effective one-way hop, in µs, of a memnet whose
// injected delay is 1 ms: a property of the machine's timer grid, measured
// so the geo-conflict numbers can be read in round trips.
func timerFloorUs() (float64, error) {
	pp, err := newPingPong(transport.NewMemNetwork(transport.ConstantLatency(time.Millisecond)))
	if err != nil {
		return 0, fmt.Errorf("timer floor: %w", err)
	}
	us := make([]float64, 0, 40)
	for i := 0; i < cap(us); i++ {
		start := time.Now()
		if err := pp.roundTrip(); err != nil {
			pp.close()
			return 0, fmt.Errorf("timer floor: %w", err)
		}
		us = append(us, float64(time.Since(start))/2e3)
	}
	if err := pp.close(); err != nil {
		return 0, fmt.Errorf("timer floor: %w", err)
	}
	return median(us), nil
}

func (b *layerBench) transport(context.Context) error {
	pp, err := newPingPong(transport.NewMemNetwork(nil))
	if err != nil {
		return fmt.Errorf("transport hop: %w", err)
	}
	var firstErr error
	st := timeLoop(b.d, 2*200, func() {
		for i := 0; i < 200; i++ {
			if err := pp.roundTrip(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	if err := pp.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return fmt.Errorf("transport hop: %w", firstErr)
	}
	b.out["transport.hop_ns"] = st.ns
	b.out["transport.hop_allocs"] = st.allocs
	floor, err := timerFloorUs()
	if err != nil {
		return err
	}
	b.out["transport.timer_floor_us"] = floor
	return nil
}

const opEcho = 1

// echoServer starts an rpc server on nw that echoes payloads, and a client
// connected to it.
func echoServer(nw *transport.MemNetwork) (*rpc.Client, func(), error) {
	l, err := nw.Listen("echo-server")
	if err != nil {
		return nil, nil, err
	}
	srv := rpc.NewServer()
	srv.Handle(opEcho, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	srv.Go(l)
	cl, err := rpc.Dial(nw, "echo-client", "echo-server")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return cl, func() { cl.Close(); srv.Close() }, nil
}

func (b *layerBench) rpc(ctx context.Context) error {
	cl, stop, err := echoServer(transport.NewMemNetwork(nil))
	if err != nil {
		return fmt.Errorf("rpc echo: %w", err)
	}
	defer stop()
	payload := make([]byte, 256)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st := timeLoop(b.d, 100, func() {
		for i := 0; i < 100; i++ {
			_, err := cl.Call(ctx, opEcho, payload)
			note(err)
		}
	})
	b.out["rpc.echo_ns"] = st.ns
	b.out["rpc.echo_allocs"] = st.allocs
	b.out["rpc.echo_b"] = st.bytes
	var mu sync.Mutex
	st = timeLoop(b.d, 8*50, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := cl.Call(ctx, opEcho, payload); err != nil {
						mu.Lock()
						note(err)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	})
	b.out["rpc.echo_par8_ns"] = st.ns
	if firstErr != nil {
		return fmt.Errorf("rpc echo: %w", firstErr)
	}
	return nil
}

func rid(client, seq uint64) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(client), Seq: rifl.Seq(seq)}
}

func (b *layerBench) kv(context.Context) error {
	cmd := &kv.Command{Op: kv.OpPut, Key: b.keys[0], Value: b.val}
	wire := cmd.Encode()
	var firstErr error
	enc := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			wire = cmd.Encode()
		}
	})
	dec := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			if _, err := kv.DecodeCommand(wire); err != nil {
				firstErr = err
			}
		}
	})
	b.out["kv.cmd_encode_ns"] = enc.ns
	b.out["kv.cmd_decode_ns"] = dec.ns
	b.out["kv.cmd_codec_allocs"] = enc.allocs + dec.allocs

	// Apply: puts decoded off the wire (so the store may adopt their value
	// buffers, as it does on a master) cycling over the working set. The
	// store's log is never truncated, so the heap each put leaves behind is
	// measured over the same loop.
	store := kv.NewStore()
	var seq uint64
	next := 0
	cmds := make([]*kv.Command, 1000)
	settleHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	puts := 0
	ap := timeLoopPrepared(b.d, len(cmds), func() {
		for i := range cmds {
			c, err := kv.DecodeCommand((&kv.Command{Op: kv.OpPut, Key: b.keys[next], Value: b.val}).Encode())
			if err != nil {
				firstErr = err
				return
			}
			cmds[i] = c
			next = (next + 1) % layerKeys
		}
	}, func() {
		for _, c := range cmds {
			seq++
			if _, _, err := store.Apply(c, rid(1, seq)); err != nil {
				firstErr = err
			}
		}
		puts += len(cmds)
	})
	clear(cmds)
	settleHeap()
	runtime.ReadMemStats(&m1)
	b.out["kv.apply_put_ns"] = ap.ns
	b.out["kv.apply_put_allocs"] = ap.allocs
	b.out["kv.retained_b_per_put"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(puts)

	get := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			store.Get(b.keys[(next+i)%layerKeys])
		}
	})
	b.out["kv.get_ns"] = get.ns

	entries := store.EntriesSince(0)
	if len(entries) > 100000 {
		entries = entries[:100000]
	}
	entries = entries[:len(entries)/50*50]
	app := timeLoop(b.d, len(entries), func() {
		bk := kv.NewBackup()
		for i := 0; i < len(entries); i += 50 {
			if err := bk.Append(entries[i : i+50]); err != nil {
				firstErr = err
			}
		}
	})
	b.out["kv.backup_append_ns"] = app.ns
	if firstErr != nil {
		return fmt.Errorf("kv layer: %w", firstErr)
	}
	return nil
}

func (b *layerBench) witness(context.Context) error {
	w, err := witness.New(1, witness.DefaultConfig())
	if err != nil {
		return fmt.Errorf("witness layer: %w", err)
	}
	req := (&kv.Command{Op: kv.OpPut, Key: b.keys[0], Value: b.val}).Encode()
	var seq, x uint64
	gcs := make([]witness.GCKey, 0, 50)
	one := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
			seq++
			w.Record(1, []uint64{x}, rid(1, seq), req, commute.ClassWrite)
			gcs = append(gcs, witness.GCKey{KeyHash: x, ID: rid(1, seq)})
			if len(gcs) == 50 {
				w.GC(gcs)
				gcs = gcs[:0]
			}
		}
	})
	b.out["witness.record_gc_ns"] = one.ns
	b.out["witness.record_allocs"] = one.allocs
	recs := make([]witness.Record, 16)
	batch := timeLoop(b.d, 16*64, func() {
		for i := 0; i < 64; i++ {
			gcs = gcs[:0]
			for j := range recs {
				x = splitmix(x)
				seq++
				recs[j] = witness.Record{KeyHashes: []uint64{x}, ID: rid(1, seq), Request: req, Class: commute.ClassWrite}
				gcs = append(gcs, witness.GCKey{KeyHash: x, ID: rid(1, seq)})
			}
			w.RecordBatch(1, recs)
			w.GC(gcs)
		}
	})
	b.out["witness.recordbatch16_ns"] = batch.ns
	return nil
}

func (b *layerBench) rifl(context.Context) error {
	tr := rifl.NewTracker()
	result := make([]byte, 16)
	var seq uint64
	br := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			seq++
			id := rid(1, seq)
			tr.Begin(id, id.Seq) // ack everything before this RPC, as a closed-loop client does
			tr.Record(id, result)
		}
	})
	b.out["rifl.begin_record_ns"] = br.ns
	s := rifl.NewSession(1)
	ses := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			id := s.NextID()
			s.Ack()
			s.Finish(id)
		}
	})
	b.out["rifl.session_ns"] = ses.ns
	return nil
}

// stubMaster and stubWitness answer the core client in-process: every
// update executes speculatively and every record is accepted, so what is
// left is the async engine's own cost.
type stubMaster struct{ ok []byte }

func (m stubMaster) UpdateBatch(_ context.Context, reqs []*core.Request) ([]*core.Reply, error) {
	out := make([]*core.Reply, len(reqs))
	for i := range out {
		out[i] = &core.Reply{Status: core.StatusOK, Payload: m.ok}
	}
	return out, nil
}
func (m stubMaster) Read(context.Context, *core.Request) (*core.Reply, error) {
	return &core.Reply{Status: core.StatusOK, Payload: m.ok}, nil
}
func (stubMaster) Sync(context.Context) error { return nil }

type stubWitness struct{}

func (stubWitness) RecordBatch(_ context.Context, _ uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	return make([]witness.RecordResult, len(recs)), nil // zero value is Accepted
}
func (stubWitness) Commutes(context.Context, []uint64) (bool, error)    { return true, nil }
func (stubWitness) Drop(context.Context, uint64, []witness.GCKey) error { return nil }

func (b *layerBench) core(ctx context.Context) error {
	if witness.RecordResult(0) != witness.Accepted {
		return fmt.Errorf("core layer: witness.Accepted is no longer the zero RecordResult")
	}
	ms := core.NewMasterState(core.DefaultMasterConfig())
	var lsn, x uint64
	cc := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
			hs := []uint64{x}
			ms.Conflicts(hs, commute.ClassWrite)
			lsn++
			ms.NoteMutation(hs, lsn, commute.ClassWrite)
			if lsn%50 == 0 {
				ms.NoteSync(lsn)
			}
		}
	})
	b.out["core.conflict_check_ns"] = cc.ns

	view := &core.View{MasterID: 1, WitnessListVersion: 1, Master: stubMaster{ok: (&kv.Result{Found: true}).Encode()}}
	for i := 0; i < 3; i++ {
		view.Witnesses = append(view.Witnesses, stubWitness{})
	}
	cl := core.NewClient(rifl.NewSession(1), core.StaticView{V: view}, core.DefaultClientConfig())
	payload := (&kv.Command{Op: kv.OpPut, Key: b.keys[0], Value: b.val}).Encode()
	var firstErr error
	up := timeLoop(b.d, 100, func() {
		for i := 0; i < 100; i++ {
			x = splitmix(x)
			if _, err := cl.Update(ctx, []uint64{x}, payload, commute.ClassWrite); err != nil {
				firstErr = err
			}
		}
	})
	b.out["core.client_update_ns"] = up.ns
	b.out["core.client_update_allocs"] = up.allocs
	ops := make([]core.BatchOp, 16)
	bt := timeLoop(b.d, 16*10, func() {
		for i := 0; i < 10; i++ {
			for j := range ops {
				x = splitmix(x)
				ops[j] = core.BatchOp{KeyHashes: []uint64{x}, Payload: payload, Class: commute.ClassWrite}
			}
			for _, f := range cl.UpdateBatchAsync(ctx, ops) {
				if _, err := f.Wait(ctx); err != nil {
					firstErr = err
				}
			}
		}
	})
	b.out["core.client_batch16_ns"] = bt.ns
	if firstErr != nil {
		return fmt.Errorf("core layer: %w", firstErr)
	}
	return nil
}

// putLoop times blocking puts over the working set.
func (b *layerBench) putLoop(put func(key, value []byte) error) (loopStat, error) {
	for i := 0; i < 2000; i++ { // warm connections, pools and the key space
		if err := put(b.keys[i], b.val); err != nil {
			return loopStat{}, err
		}
	}
	var firstErr error
	next := 0
	st := timeLoop(b.d, 100, func() {
		for i := 0; i < 100; i++ {
			if err := put(b.keys[next], b.val); err != nil && firstErr == nil {
				firstErr = err
			}
			next = (next + 1) % layerKeys
		}
	})
	return st, firstErr
}

func (b *layerBench) clusterAndShard(ctx context.Context) error {
	// cluster.Client.Put on the workloads' F=3 partition: the public
	// curp.Client.Put minus its one-line wrapper.
	copts := cluster.DefaultOptions()
	copts.F = 3
	c3, err := cluster.Start(transport.NewMemNetwork(nil), copts)
	if err != nil {
		return fmt.Errorf("cluster layer: %w", err)
	}
	cl3, err := c3.NewClient("layers")
	if err != nil {
		c3.Close()
		return fmt.Errorf("cluster layer: %w", err)
	}
	st, err := b.putLoop(func(k, v []byte) error { _, err := cl3.Put(ctx, k, v); return err })
	cl3.Close()
	c3.Close()
	if err != nil {
		return fmt.Errorf("cluster layer: %w", err)
	}
	b.out["cluster.put_ns"] = st.ns
	b.out["cluster.put_allocs"] = st.allocs

	ring, err := shard.NewRing(2, shard.DefaultVirtualNodes)
	if err != nil {
		return fmt.Errorf("shard layer: %w", err)
	}
	sum := 0
	rl := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			sum += ring.Shard(b.keys[i])
		}
	})
	b.out["shard.ring_lookup_ns"] = rl.ns
	spinSink += uint64(sum)

	// Routing overhead: the same F=1 partition reached through the routing
	// client (one shard, so no spreading) and directly, in alternating
	// chunks of 100 puts so that the machine's drift hits both alike.
	direct, err := boot(&workloadSpec{F: 1})
	if err != nil {
		return fmt.Errorf("shard layer: %w", err)
	}
	defer direct.close()
	routed, err := boot(&workloadSpec{F: 1, Shards: 1})
	if err != nil {
		return fmt.Errorf("shard layer: %w", err)
	}
	defer routed.close()
	var firstErr error
	var lat [2][]float64
	clients := [2]kvClient{direct.client, routed.client}
	next := 0
	chunk := func(which int) {
		for i := 0; i < 100; i++ {
			start := time.Now()
			if _, err := clients[which].Put(ctx, b.keys[next], b.val); err != nil && firstErr == nil {
				firstErr = err
			}
			lat[which] = append(lat[which], float64(time.Since(start)))
			next = (next + 1) % layerKeys
		}
	}
	for i := 0; i < 10; i++ { // warm both paths
		chunk(0)
		chunk(1)
	}
	lat[0], lat[1] = lat[0][:0], lat[1][:0]
	timeLoop(2*b.d, 200, func() { chunk(0); chunk(1) })
	if firstErr != nil {
		return fmt.Errorf("shard layer: %w", firstErr)
	}
	b.out["shard.route_overhead_ns"] = median(lat[1]) - median(lat[0])
	return nil
}

// txnLoop times two-counter transfer transactions between accounts chosen
// by pick and returns the median commit latency in µs.
func (b *layerBench) txnLoop(ctx context.Context, cl kvClient, accounts [][]byte, pick func(i int) (from, to []byte)) (float64, error) {
	for _, k := range accounts {
		if _, err := cl.Put(ctx, k, []byte("1000000")); err != nil {
			return 0, err
		}
	}
	var firstErr error
	lat := make([]float64, 0, 1<<14)
	n := 0
	timeLoop(b.d, 20, func() {
		for i := 0; i < 20; i++ {
			from, to := pick(n)
			n++
			start := time.Now()
			t := cl.Txn()
			t.Increment(from, -1)
			t.Increment(to, +1)
			if err := t.Commit(ctx); err != nil && firstErr == nil {
				firstErr = err
			}
			lat = append(lat, float64(time.Since(start))/1e3)
		}
	})
	return median(lat), firstErr
}

func (b *layerBench) txn(ctx context.Context) error {
	accounts := b.keys[:256]
	single, err := boot(&workloadSpec{F: 1})
	if err != nil {
		return fmt.Errorf("txn layer: %w", err)
	}
	us, err := b.txnLoop(ctx, single.client, accounts, func(i int) ([]byte, []byte) {
		return accounts[i%len(accounts)], accounts[(i+1)%len(accounts)]
	})
	single.close()
	if err != nil {
		return fmt.Errorf("txn layer (single shard): %w", err)
	}
	b.out["txn.single_shard_commit_us"] = us

	sharded, err := boot(&workloadSpec{F: 1, Shards: 2})
	if err != nil {
		return fmt.Errorf("txn layer: %w", err)
	}
	defer sharded.close()
	var byShard [2][][]byte
	for _, k := range accounts {
		s := sharded.sharded.ShardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		return fmt.Errorf("txn layer: one shard owns no account")
	}
	us, err = b.txnLoop(ctx, sharded.client, accounts, func(i int) ([]byte, []byte) {
		return byShard[0][i%len(byShard[0])], byShard[1][i%len(byShard[1])]
	})
	if err != nil {
		return fmt.Errorf("txn layer (cross shard): %w", err)
	}
	b.out["txn.cross_shard_commit_us"] = us
	return nil
}

func (b *layerBench) dstore(ctx context.Context) error {
	dc, err := curp.NewDurableCache(curp.Options{})
	if err != nil {
		return fmt.Errorf("dstore layer: %w", err)
	}
	defer dc.Close()
	settleHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fs0 := dc.Fsyncs()
	var firstErr error
	next, sets := 0, 0
	st := timeLoop(b.d, 100, func() {
		for i := 0; i < 100; i++ {
			if err := dc.Set(ctx, b.keys[next], b.val); err != nil && firstErr == nil {
				firstErr = err
			}
			next = (next + 1) % layerKeys
		}
		sets += 100
	})
	fsyncs := dc.Fsyncs() - fs0
	settleHeap()
	runtime.ReadMemStats(&m1)
	if firstErr != nil {
		return fmt.Errorf("dstore layer: %w", firstErr)
	}
	b.out["dstore.set_ns"] = st.ns
	b.out["dstore.set_allocs"] = st.allocs
	b.out["dstore.fsyncs_per_kop"] = float64(fsyncs) / float64(sets) * 1000
	b.out["dstore.retained_b_per_op"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(sets)
	return nil
}

func (b *layerBench) observability(ctx context.Context) error {
	coll := metrics.NewCollector("layers", "master", 0)
	tctx, root := coll.StartTrace(ctx, "client-flush", 0)
	defer root.End()
	now := time.Now()
	sp := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			coll.RecordSpan(tctx, "apply", "put", "", now, time.Microsecond, "")
		}
	})
	b.out["metrics.span_record_ns"] = sp.ns
	h := metrics.NewHistogram()
	var x uint64
	ho := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
			h.Observe(int64(x % 1e6))
		}
	})
	b.out["metrics.hist_observe_ns"] = ho.ns
	j := events.NewJournal("layers", "master")
	je := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			j.Record(events.Event{Kind: "bench", MasterID: 1, Epoch: 1})
		}
	})
	b.out["events.journal_emit_ns"] = je.ns
	tk := events.NewTopK("layers", 0)
	to := timeLoop(b.d, 1000, func() {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
			tk.Observe(x % 4096)
		}
	})
	b.out["events.topk_observe_ns"] = to.ns
	return nil
}
