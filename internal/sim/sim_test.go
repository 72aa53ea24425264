package sim

import (
	"testing"
	"time"
)

func TestEventLoopOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(3*time.Microsecond, func() { order = append(order, 3) })
	s.After(1*time.Microsecond, func() { order = append(order, 1) })
	s.After(2*time.Microsecond, func() {
		order = append(order, 2)
		s.After(time.Microsecond, func() { order = append(order, 4) })
	})
	n := s.Run(0)
	if n != 4 {
		t.Fatalf("events = %d", n)
	}
	for i, v := range []int{1, 2, 3, 4} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 3*time.Microsecond {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestEventLoopFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Microsecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Millisecond, func() { fired++ })
	s.After(time.Second, func() { fired++ })
	s.Run(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	a := r.Acquire(0, 10)
	b := r.Acquire(0, 10)
	c := r.Acquire(25, 10)
	if a != 10 || b != 20 || c != 35 {
		t.Fatalf("completions = %v %v %v", a, b, c)
	}
	if r.Busy != 30 {
		t.Fatalf("busy = %v", r.Busy)
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool(2)
	a := p.Acquire(0, 10)
	b := p.Acquire(0, 10)
	c := p.Acquire(0, 10)
	if a != 10 || b != 10 || c != 20 {
		t.Fatalf("completions = %v %v %v", a, b, c)
	}
}

func TestLogNormal(t *testing.T) {
	s := New(7)
	if s.LogNormal(0, 1) != 0 {
		t.Fatal("zero scale")
	}
	if s.LogNormal(100, 0) != 100 {
		t.Fatal("zero sigma should be deterministic")
	}
	var sum time.Duration
	for i := 0; i < 1000; i++ {
		v := s.LogNormal(time.Microsecond, 1)
		if v <= 0 {
			t.Fatal("lognormal must be positive")
		}
		sum += v
	}
	if sum <= 0 {
		t.Fatal("no samples")
	}
}

func TestKVDeterminism(t *testing.T) {
	p := KVParams{Mode: ModeCURP, F: 3, Clients: 2, Ops: 500, Seed: 42}
	a := RunKV(p)
	b := RunKV(p)
	if a.WriteLatency.Percentile(50) != b.WriteLatency.Percentile(50) ||
		a.Elapsed != b.Elapsed || a.FastPath != b.FastPath {
		t.Fatal("same seed must reproduce identical runs")
	}
}

func TestKVLatencyOrdering(t *testing.T) {
	// The core latency claim (Fig 5): unreplicated ≤ CURP ≪ original, and
	// CURP is within ~1µs of unreplicated while original is ≈2×.
	base := KVParams{Clients: 1, Ops: 4000, Seed: 1}
	un := RunKV(withMode(base, ModeUnreplicated, 0))
	curp := RunKV(withMode(base, ModeCURP, 3))
	orig := RunKV(withMode(base, ModeOriginal, 3))

	unP50 := time.Duration(un.WriteLatency.Percentile(50))
	curpP50 := time.Duration(curp.WriteLatency.Percentile(50))
	origP50 := time.Duration(orig.WriteLatency.Percentile(50))

	if !(unP50 <= curpP50 && curpP50 < origP50) {
		t.Fatalf("p50 ordering: un=%v curp=%v orig=%v", unP50, curpP50, origP50)
	}
	// CURP ≈ unreplicated (within 1µs, paper: 0.4µs).
	if d := curpP50 - unP50; d > time.Microsecond {
		t.Fatalf("CURP overhead vs unreplicated = %v, want ≤1µs", d)
	}
	// Original ≈ 2× CURP (paper: 13.8 vs 7.3).
	ratio := float64(origP50) / float64(curpP50)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("original/CURP p50 ratio = %.2f, want ≈2", ratio)
	}
	// Absolute calibration within 15% of the paper's medians.
	approx(t, "unreplicated p50", unP50, 6900*time.Nanosecond, 0.15)
	approx(t, "curp p50", curpP50, 7300*time.Nanosecond, 0.15)
	approx(t, "original p50", origP50, 13800*time.Nanosecond, 0.15)
	// All CURP ops on distinct random keys fast-path.
	if curp.FastPath < curp.Params.Ops*99/100 {
		t.Fatalf("fast path = %d / %d", curp.FastPath, curp.Params.Ops)
	}
}

func withMode(p KVParams, m Mode, f int) KVParams {
	p.Mode = m
	p.F = f
	return p
}

func approx(t *testing.T, what string, got, want time.Duration, tol float64) {
	t.Helper()
	lo := time.Duration(float64(want) * (1 - tol))
	hi := time.Duration(float64(want) * (1 + tol))
	if got < lo || got > hi {
		t.Fatalf("%s = %v, want %v ±%.0f%%", what, got, want, tol*100)
	}
}

func TestKVThroughputOrdering(t *testing.T) {
	// The Fig 6 claim: CURP ≈ 4× original; async slightly above CURP;
	// unreplicated above async.
	base := KVParams{Clients: 24, Ops: 20000, Seed: 2}
	un := RunKV(withMode(base, ModeUnreplicated, 0))
	as := RunKV(withMode(base, ModeAsync, 3))
	curp := RunKV(withMode(base, ModeCURP, 3))
	orig := RunKV(withMode(base, ModeOriginal, 3))

	if !(orig.ThroughputOpsPerSec < curp.ThroughputOpsPerSec &&
		curp.ThroughputOpsPerSec <= as.ThroughputOpsPerSec &&
		as.ThroughputOpsPerSec <= un.ThroughputOpsPerSec) {
		t.Fatalf("throughput ordering: orig=%.0f curp=%.0f async=%.0f un=%.0f",
			orig.ThroughputOpsPerSec, curp.ThroughputOpsPerSec,
			as.ThroughputOpsPerSec, un.ThroughputOpsPerSec)
	}
	ratio := curp.ThroughputOpsPerSec / orig.ThroughputOpsPerSec
	if ratio < 3 || ratio > 5.5 {
		t.Fatalf("CURP/original throughput = %.2f, want ≈4", ratio)
	}
	// CURP within ~15% of async (paper: 10%).
	if curp.ThroughputOpsPerSec < 0.8*as.ThroughputOpsPerSec {
		t.Fatalf("CURP %.0f ≪ async %.0f", curp.ThroughputOpsPerSec, as.ThroughputOpsPerSec)
	}
}

func TestKVNetworkAmplification(t *testing.T) {
	// §5.2: with f=3, CURP moves ≈1.75× the bytes of the original
	// protocol (7 copies vs 4).
	base := KVParams{Clients: 4, Ops: 5000, Seed: 3, SyncBatch: 50}
	curp := RunKV(withMode(base, ModeCURP, 3))
	orig := RunKV(withMode(base, ModeOriginal, 3))
	ratio := float64(curp.PayloadBytes) / float64(orig.PayloadBytes)
	if ratio < 1.6 || ratio > 1.9 {
		t.Fatalf("payload amplification = %.2f, want 1.75 (7 vs 4 copies)", ratio)
	}
	// Including headers and acks, the overall byte ratio is smaller but
	// still above 1.
	overall := float64(curp.NetworkBytes) / float64(orig.NetworkBytes)
	if overall < 1.1 || overall > 2.0 {
		t.Fatalf("total byte ratio = %.2f", overall)
	}
}

func TestKVZipfianConflicts(t *testing.T) {
	// Fig 7: under YCSB-A (Zipfian 0.99, 50% writes), ≈1% of writes
	// conflict; they finish in ≈2 RTTs via the master's synced reply, not
	// via client sync RPCs.
	p := KVParams{Mode: ModeCURP, F: 3, Clients: 1, Ops: 20000, Seed: 4,
		WriteFraction: 0.5, Zipfian: true, Keys: 1_000_000}
	r := RunKV(p)
	writes := r.FastPath + r.SyncedByMaster + r.SlowPath
	conflictFrac := float64(r.SyncedByMaster+r.SlowPath) / float64(writes)
	if conflictFrac <= 0 || conflictFrac > 0.08 {
		t.Fatalf("conflict fraction = %.4f, want small but nonzero", conflictFrac)
	}
	// Witness rejections are mostly co-detected by the master (§5.3), so
	// explicit client sync RPCs are rarer than master-synced replies.
	if r.SlowPath > r.SyncedByMaster {
		t.Fatalf("slow path %d > master-synced %d", r.SlowPath, r.SyncedByMaster)
	}
	// Reads happen and are fast.
	if r.ReadLatency.Count() == 0 {
		t.Fatal("no reads recorded")
	}
}

func TestKVBatchSweepShape(t *testing.T) {
	// Fig 12 / §C.1: throughput rises with the minimum batch size, and —
	// crucially — the single-outstanding-sync discipline batches
	// naturally, so even at minimum batch 1 the effective batch is ≥10
	// ("syncs are naturally batched for around 15 writes even at 1
	// minimum batch size") and throughput stays well above the original
	// system's.
	base := KVParams{Mode: ModeCURP, F: 3, Clients: 24, Ops: 15000, Seed: 5}
	run := func(b int) *KVResult {
		p := base
		p.SyncBatch = b
		return RunKV(p)
	}
	r1, r30, r50 := run(1), run(30), run(50)
	if !(r1.ThroughputOpsPerSec*0.98 <= r30.ThroughputOpsPerSec &&
		r30.ThroughputOpsPerSec*0.98 <= r50.ThroughputOpsPerSec) {
		t.Fatalf("not monotone: b1=%.0f b30=%.0f b50=%.0f",
			r1.ThroughputOpsPerSec, r30.ThroughputOpsPerSec, r50.ThroughputOpsPerSec)
	}
	gain := r50.ThroughputOpsPerSec / r1.ThroughputOpsPerSec
	if gain < 1.05 || gain > 2.0 {
		t.Fatalf("batch 50 / batch 1 = %.2f, want modest (paper ≈1.3)", gain)
	}
	// Natural batching at minimum batch 1.
	if eff := float64(r1.SyncedOps) / float64(r1.Syncs); eff < 10 {
		t.Fatalf("effective batch at min 1 = %.1f, want ≥10 (natural batching)", eff)
	}
	// Even at batch 1, CURP beats the original system handily (Fig 12).
	orig := RunKV(withMode(KVParams{Clients: 24, Ops: 15000, Seed: 5}, ModeOriginal, 3))
	if r1.ThroughputOpsPerSec < 1.5*orig.ThroughputOpsPerSec {
		t.Fatalf("CURP@1 (%.0f) should beat original (%.0f)",
			r1.ThroughputOpsPerSec, orig.ThroughputOpsPerSec)
	}
}

func TestRedisDeterminism(t *testing.T) {
	p := RedisParams{Mode: RedisCURP, Witnesses: 1, Ops: 2000, Seed: 9}
	a, b := RunRedis(p), RunRedis(p)
	if a.Latency.Percentile(50) != b.Latency.Percentile(50) || a.Elapsed != b.Elapsed {
		t.Fatal("redis sim must be deterministic")
	}
}

func TestRedisLatencyShape(t *testing.T) {
	// Fig 8: CURP(1W) ≈ non-durable (+~12%); durable ≫ both; CURP(2W)
	// hurt at the tail, visible at p90.
	base := RedisParams{Clients: 1, Ops: 15000, Seed: 10}
	nd := RunRedis(withRedisMode(base, RedisNonDurable, 0))
	c1 := RunRedis(withRedisMode(base, RedisCURP, 1))
	c2 := RunRedis(withRedisMode(base, RedisCURP, 2))
	du := RunRedis(withRedisMode(base, RedisDurable, 0))

	ndP50 := nd.Latency.Percentile(50)
	c1P50 := c1.Latency.Percentile(50)
	duP50 := du.Latency.Percentile(50)
	if !(ndP50 < c1P50 && c1P50 < duP50) {
		t.Fatalf("p50 ordering: nd=%d c1=%d du=%d", ndP50, c1P50, duP50)
	}
	// CURP(1W) overhead ≈ 12% (allow 5–40%).
	over := float64(c1P50-ndP50) / float64(ndP50)
	if over < 0.02 || over > 0.4 {
		t.Fatalf("CURP 1W median overhead = %.2f, want ≈0.12", over)
	}
	// Durable ≥ 2.5× non-durable (fsync dominates).
	if float64(duP50) < 2.5*float64(ndP50) {
		t.Fatalf("durable p50 %d not ≫ non-durable %d", duP50, ndP50)
	}
	// Tail amplification with 2 witnesses: p90 gap grows faster than p50.
	c2Tail := c2.Latency.Percentile(90) - c1.Latency.Percentile(90)
	if c2Tail <= 0 {
		t.Fatalf("2-witness tail not worse: Δp90 = %d", c2Tail)
	}
	// Durable fsyncs every cycle; CURP fsyncs off the critical path.
	if du.Fsyncs == 0 {
		t.Fatal("durable mode did not fsync")
	}
}

func withRedisMode(p RedisParams, m RedisMode, w int) RedisParams {
	p.Mode = m
	p.Witnesses = w
	return p
}

func TestRedisThroughputShape(t *testing.T) {
	// Fig 9: with many clients, durable approaches non-durable (event-loop
	// fsync batching); CURP sits slightly below non-durable (~18%).
	base := RedisParams{Clients: 48, Ops: 30000, Seed: 11}
	nd := RunRedis(withRedisMode(base, RedisNonDurable, 0))
	cu := RunRedis(withRedisMode(base, RedisCURP, 1))
	du := RunRedis(withRedisMode(base, RedisDurable, 0))
	if cu.ThroughputOpsPerSec >= nd.ThroughputOpsPerSec {
		t.Fatalf("CURP (%.0f) should trail non-durable (%.0f)", cu.ThroughputOpsPerSec, nd.ThroughputOpsPerSec)
	}
	frac := cu.ThroughputOpsPerSec / nd.ThroughputOpsPerSec
	if frac < 0.6 || frac > 0.98 {
		t.Fatalf("CURP/non-durable = %.2f, want ≈0.82", frac)
	}
	// Durable within 40% of non-durable at high client counts (batching),
	// but its latency pays for it.
	if du.ThroughputOpsPerSec < 0.5*nd.ThroughputOpsPerSec {
		t.Fatalf("durable throughput %.0f too far below non-durable %.0f", du.ThroughputOpsPerSec, nd.ThroughputOpsPerSec)
	}
	// Durable's throughput parity is bought with latency (Fig 13): its
	// mean latency carries the per-cycle fsync on top of the queueing both
	// modes share.
	if du.Latency.Mean() < 1.2*nd.Latency.Mean() {
		t.Fatalf("durable batching should cost latency: %.0f vs %.0f", du.Latency.Mean(), nd.Latency.Mean())
	}
}

func TestWitnessServerCapacity(t *testing.T) {
	// §5.2: one witness thread sustains ≈1.3M records/s — far above one
	// master's ≈730k writes/s, so f witnesses never bottleneck a master.
	recordCost := 750 * time.Nanosecond
	perSec := float64(time.Second) / float64(recordCost)
	if perSec < 1_000_000 {
		t.Fatalf("witness capacity = %.0f records/s, want >1M", perSec)
	}
	// And in a saturated CURP run, witness utilization stays below the
	// dispatch thread's.
	r := RunKV(KVParams{Mode: ModeCURP, F: 3, Clients: 24, Ops: 20000, Seed: 12})
	if r.ThroughputOpsPerSec < 400_000 {
		t.Fatalf("saturated CURP throughput = %.0f", r.ThroughputOpsPerSec)
	}
}
