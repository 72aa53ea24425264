package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"curp"
)

// kvClient is the part of the public client API the workloads use;
// *curp.Client and *curp.ShardedClient both provide it.
type kvClient interface {
	Put(ctx context.Context, key, value []byte) (uint64, error)
	Get(ctx context.Context, key []byte) (value []byte, ok bool, err error)
	Increment(ctx context.Context, key []byte, delta int64) (int64, error)
	NewPipeline() *curp.Pipeline
	Txn() *curp.Txn
	Stats() curp.Stats
	Close()
}

// stack is one freshly booted deployment plus the single client that drives
// it.
type stack struct {
	client  kvClient
	single  *curp.Cluster        // nil on sharded workloads
	sharded *curp.ShardedCluster // nil on single-partition workloads
}

func (s *stack) close() {
	s.client.Close()
	if s.single != nil {
		s.single.Close()
	} else {
		s.sharded.Close()
	}
}

// writeMetrics renders the deployment's Prometheus exposition.
func (s *stack) writeMetrics(w io.Writer) error {
	if s.single != nil {
		return s.single.WriteMetrics(w)
	}
	return s.sharded.WriteMetrics(w)
}

// boot starts workload w's deployment with default Options (tracing and
// events on, as shipped) and opens its one client.
func boot(w *workloadSpec) (*stack, error) {
	opts := curp.Options{F: w.F, Shards: w.Shards}
	if w.LatencyMs > 0 {
		d := time.Duration(w.LatencyMs) * time.Millisecond
		opts.Latency = func(_, _ string) time.Duration { return d }
	}
	s := &stack{}
	var err error
	if w.Shards > 0 {
		if s.sharded, err = curp.StartSharded(opts); err != nil {
			return nil, fmt.Errorf("StartSharded: %w", err)
		}
		cl, err := s.sharded.NewClient("bench")
		if err != nil {
			s.sharded.Close()
			return nil, fmt.Errorf("NewClient: %w", err)
		}
		s.client = cl
		return s, nil
	}
	if s.single, err = curp.Start(opts); err != nil {
		return nil, fmt.Errorf("Start: %w", err)
	}
	cl, err := s.single.NewClient("bench")
	if err != nil {
		s.single.Close()
		return nil, fmt.Errorf("NewClient: %w", err)
	}
	s.client = cl
	return s, nil
}

// preloadDepth is the pipeline depth used to load the key space; it is
// set-up, not a measured path.
const preloadDepth = 64

// span is one of the benchmark's own client-side spans (traced rounds).
type span struct {
	Name  string `json:"name"`
	Op    int    `json:"op"`       // index of the (first) operation in the round's stream
	Start int64  `json:"start_ns"` // unix nanoseconds, the clock the program's own spans use
	End   int64  `json:"end_ns"`
}

// roundResult is what one round measured.
type roundResult struct {
	nOps     int
	failed   int
	firstErr error
	setup    time.Duration
	blockDur []time.Duration     // duration of each of the blocksPerRound equal op-count blocks
	lat      [numClasses][]int64 // ns, in issue order

	fast, synced, slow uint64 // client Stats delta over the timed ops

	mallocs, allocBytes uint64
	retained            int64
	heapEnd             uint64
	gcCycles            uint32
	gcCPUFraction       float64
	cpu                 time.Duration

	spans []span // only when the round records spans
}

// runner executes a plan against a stack and keeps the ledger.
type runner struct {
	ctx      context.Context
	st       *stack
	p        *plan
	l        *ledger
	round    int
	vbuf     [][]byte    // one value buffer per pipeline slot
	shardAcc [2][]uint32 // account indexes owned by shard 0 / shard 1 (shard-txn)
	badRet   int         // Increment calls whose returned total disagreed with the ledger
	record   bool        // record benchmark spans
}

// putAll writes n keys through depth-preloadDepth pipeline flushes: kv
// returns the i-th pair (slot is its position in the current flush, for
// callers that reuse value buffers) and acked records it in the ledger once
// its flush returned.
func (r *runner) putAll(n int, kv func(i, slot int) (key, value []byte), acked func(i int)) error {
	pipe := r.st.client.NewPipeline()
	for first := 0; first < n; first += preloadDepth {
		end := min(first+preloadDepth, n)
		for i := first; i < end; i++ {
			pipe.Put(kv(i, i-first))
		}
		if err := pipe.Flush(r.ctx); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i := first; i < end; i++ {
			acked(i)
		}
		r.l.updates += uint64(end - first)
	}
	return nil
}

// preload writes the key space: w.Preload blob keys and the counters.
func (r *runner) preload() error {
	p, l := r.p, r.l
	bufs := make([][]byte, preloadDepth)
	for i := range bufs {
		bufs[i] = make([]byte, valueSize)
	}
	tag := func(i int) uint64 { return valueTag(p.seed, r.round, phasePreload, i) }
	err := r.putAll(p.w.Preload, func(i, slot int) ([]byte, []byte) {
		fillValue(bufs[slot], tag(i))
		return p.keys[i], bufs[slot]
	}, func(i int) { l.lastTag[i] = tag(i) })
	if err != nil || p.w.Accounts == 0 {
		return err
	}
	balance := []byte(strconv.Itoa(accountStart))
	err = r.putAll(len(p.counters), func(i, _ int) ([]byte, []byte) {
		return p.counters[i], balance
	}, func(i int) {
		l.counter[i] = accountStart
		l.start += accountStart
	})
	if err != nil {
		return err
	}
	for i, k := range p.counters {
		s := r.st.sharded.ShardFor(k)
		r.shardAcc[s] = append(r.shardAcc[s], uint32(i))
	}
	if len(r.shardAcc[0]) == 0 || len(r.shardAcc[1]) == 0 {
		return errors.New("preload: one shard owns no account")
	}
	return nil
}

// do issues one blocking operation and returns its latency class. The
// ledger is updated only for acknowledged calls.
func (r *runner) do(o op, phase uint64, i int) (latClass, error) {
	p, cl, l := r.p, r.st.client, r.l
	switch o.kind {
	case opPut, opRePut:
		tag := valueTag(p.seed, r.round, phase, i)
		fillValue(r.vbuf[0], tag)
		if _, err := cl.Put(r.ctx, p.keys[o.a], r.vbuf[0]); err != nil {
			return classWrite, err
		}
		l.lastTag[o.a] = tag
		l.updates++
		if o.kind == opRePut {
			return classConflict, nil
		}
		return classWrite, nil
	case opGet:
		_, _, err := cl.Get(r.ctx, p.keys[o.a])
		return classRead, err
	case opIncr:
		got, err := cl.Increment(r.ctx, p.counters[o.a], 1)
		if err != nil {
			return classWrite, err
		}
		l.counter[o.a]++
		l.updates++
		if got != l.counter[o.a] {
			r.badRet++
		}
		return classWrite, nil
	case opTxn:
		from := r.shardAcc[0][int(o.a)%len(r.shardAcc[0])]
		to := r.shardAcc[1][int(o.b)%len(r.shardAcc[1])]
		if (o.a^o.b)&1 == 1 {
			from, to = to, from
		}
		t := cl.Txn()
		t.Increment(p.counters[from], -1)
		t.Increment(p.counters[to], +1)
		if err := t.Commit(r.ctx); err != nil {
			return classTxn, err
		}
		l.counter[from]--
		l.counter[to]++
		l.updates++ // the home-shard decision record
		l.unacked++ // the fire-and-forget pruning of that record
		return classTxn, nil
	}
	panic("bench: unknown op kind")
}

// spanName is the benchmark's own span name for an operation kind.
func spanName(k opKind) string {
	switch k {
	case opGet:
		return "client.get"
	case opTxn:
		return "client.txn_commit"
	}
	return "client.put"
}

// runOps drives ops closed-loop from this one goroutine. With res == nil the
// phase is warm-up and nothing is recorded. betweenBlocks, when set, runs
// after each completed block with the clock stopped: its time is in neither
// the block durations nor any latency sample.
func (r *runner) runOps(ops []op, phase uint64, res *roundResult, betweenBlocks func()) error {
	depth := r.p.w.Depth
	perBlock := len(ops) / blocksPerRound
	var pipe *curp.Pipeline
	if depth > 1 {
		pipe = r.st.client.NewPipeline()
	}
	start := time.Now()
	blockStart := start
	for i := 0; i < len(ops); {
		var (
			class latClass
			err   error
			n     = 1
			t     = time.Now()
		)
		if depth > 1 {
			n = min(depth, len(ops)-i)
			for j := 0; j < n; j++ {
				fillValue(r.vbuf[j], valueTag(r.p.seed, r.round, phase, i+j))
				pipe.Put(r.p.keys[ops[i+j].a], r.vbuf[j])
			}
			t = time.Now()
			if err = pipe.Flush(r.ctx); err == nil {
				for j := 0; j < n; j++ {
					r.l.lastTag[ops[i+j].a] = valueTag(r.p.seed, r.round, phase, i+j)
				}
				r.l.updates += uint64(n)
			}
		} else {
			class, err = r.do(ops[i], phase, i)
		}
		end := time.Now()
		i += n
		if res == nil {
			if err != nil {
				return fmt.Errorf("warm-up op %d: %w", i-n, err)
			}
			continue
		}
		if err != nil {
			res.failed += n
			res.firstErr = cmp.Or(res.firstErr, err)
		} else {
			res.lat[class] = append(res.lat[class], int64(end.Sub(t)))
		}
		if r.record {
			name := spanName(ops[i-n].kind)
			if depth > 1 {
				name = "client.flush"
			}
			res.spans = append(res.spans, span{Name: name, Op: i - n, Start: t.UnixNano(), End: end.UnixNano()})
		}
		if i%perBlock == 0 {
			res.blockDur = append(res.blockDur, end.Sub(blockStart))
			if betweenBlocks != nil {
				betweenBlocks()
			}
			blockStart = time.Now()
		}
	}
	return nil
}

// settleHeap forces two collections: sync.Pool contents survive one cycle in
// the victim cache, so a single GC leaves a run-dependent amount of pooled
// memory in HeapAlloc.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

// drain waits for the client's fire-and-forget updates (transaction
// decision pruning) to leave the engine, so Stats accounts for all of them.
func drain(cl kvClient) {
	for i := 0; i < 2000 && cl.Stats().PipelineDepth > 0; i++ {
		time.Sleep(time.Millisecond)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func protoOf(s curp.Stats) protoCounts {
	return protoCounts{fast: s.FastPath, synced: s.SyncedByMaster, slow: s.SlowPath}
}

// roundHooks lets the traced run look at the live stack around the timed
// ops without the timed path knowing about tracing.
type roundHooks struct {
	recordSpans   bool
	beforeTimed   func(*stack) error // after set-up, before the timed ops
	betweenBlocks func()             // after each block of the timed ops, clock stopped
	afterTimed    func(*stack) error // after the timed ops, before the check and shutdown
}

// runRound executes one complete round: fresh stack, set-up, timed ops,
// correctness check, shutdown.
func runRound(ctx context.Context, p *plan, round int, hooks roundHooks) (*roundResult, error) {
	res := &roundResult{nOps: len(p.ops)}
	for c := range res.lat {
		if p.w.performs(latClass(c)) {
			res.lat[c] = make([]int64, 0, len(p.ops))
		}
	}
	if hooks.recordSpans {
		res.spans = make([]span, 0, len(p.ops))
	}
	res.blockDur = make([]time.Duration, 0, blocksPerRound)

	setupStart := time.Now()
	st, err := boot(p.w)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := &runner{ctx: ctx, st: st, p: p, l: newLedger(p), round: round, record: hooks.recordSpans}
	r.vbuf = make([][]byte, max(p.w.Depth, 1))
	for i := range r.vbuf {
		r.vbuf[i] = make([]byte, valueSize)
	}
	if err := r.preload(); err != nil {
		return nil, err
	}
	if err := r.runOps(p.warm, phaseWarm, nil, nil); err != nil {
		return nil, err
	}
	settleHeap()
	res.setup = time.Since(setupStart)

	if hooks.beforeTimed != nil {
		if err := hooks.beforeTimed(st); err != nil {
			return nil, err
		}
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := st.client.Stats()
	cpu0 := cpuTime()

	if err := r.runOps(p.ops, phaseTimed, res, hooks.betweenBlocks); err != nil {
		return nil, err
	}

	res.cpu = cpuTime() - cpu0
	drain(st.client)
	s1 := st.client.Stats()
	runtime.ReadMemStats(&m1)
	settleHeap()
	runtime.ReadMemStats(&m2)
	res.fast, res.synced, res.slow = s1.FastPath-s0.FastPath, s1.SyncedByMaster-s0.SyncedByMaster, s1.SlowPath-s0.SlowPath
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.retained = int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	res.heapEnd = m2.HeapAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcCPUFraction = m1.GCCPUFraction

	if hooks.afterTimed != nil {
		if err := hooks.afterTimed(st); err != nil {
			return nil, err
		}
	}
	if res.failed > 0 {
		return res, nil // reported as failures; the ledger no longer predicts the store
	}
	if r.badRet > 0 {
		return nil, fmt.Errorf("correctness check: %d Increment calls returned a total the acknowledged history cannot produce (exactly-once violated)", r.badRet)
	}
	if err := verify(ctx, st.client, p, r.l, protoOf(s1)); err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	return res, nil
}
