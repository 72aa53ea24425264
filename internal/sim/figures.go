package sim

import (
	"fmt"
	"io"
	"time"

	"curp/internal/stats"
	"curp/internal/witness"
)

// This file contains one driver per evaluation artifact of the paper.
// Each driver runs the relevant simulations and renders the same rows or
// series the paper reports, so `cmd/curpbench` and the bench harness print
// directly comparable output.

// FigureOps scales every figure driver; benchmarks lower it for speed.
var FigureOps = 20000

// Table1 prints the simulated cluster configuration substituted for the
// paper's hardware table.
func Table1(w io.Writer) {
	t := stats.NewTable("Table 1: simulated cluster configuration (substitutes the paper's testbed)",
		"parameter", "RAMCloud-like sim", "Redis-like sim")
	kv := KVParams{}.withDefaults()
	rd := RedisParams{}.withDefaults()
	t.AddRow("network one-way latency", kv.NetDelay, rd.NetDelay)
	t.AddRow("latency jitter (lognormal σ)", fmt.Sprintf("%.2f", kv.NetSigma), fmt.Sprintf("%.2f", rd.NetSigma))
	t.AddRow("master dispatch cost/RPC", kv.DispatchCost, "-")
	t.AddRow("op execution cost", kv.ExecCost, rd.ExecCost)
	t.AddRow("worker threads", kv.Workers, "1 (event loop)")
	t.AddRow("backup append cost", kv.BackupCost, "-")
	t.AddRow("witness record cost", kv.WitnessCost, rd.ExecCost/2)
	t.AddRow("fsync latency (median)", "-", rd.FsyncCost)
	t.AddRow("sync batch limit", 50, "event-loop cycle")
	t.Render(w)
}

// Fig5 reproduces the write-latency CCDF: sequential 100B writes under
// each replication mode.
func Fig5(w io.Writer) map[string]*KVResult {
	configs := []struct {
		name string
		p    KVParams
	}{
		{"Original RAMCloud (f=3)", KVParams{Mode: ModeOriginal, F: 3}},
		{"CURP (f=3)", KVParams{Mode: ModeCURP, F: 3}},
		{"CURP (f=2)", KVParams{Mode: ModeCURP, F: 2}},
		{"CURP (f=1)", KVParams{Mode: ModeCURP, F: 1}},
		{"Unreplicated", KVParams{Mode: ModeUnreplicated}},
	}
	out := make(map[string]*KVResult)
	t := stats.NewTable("Figure 5: 100B write latency (1 client, sequential)",
		"config", "p50", "p90", "p99", "p99.9")
	for _, c := range configs {
		p := c.p
		p.Clients = 1
		p.Ops = FigureOps
		p.Seed = 51
		r := RunKV(p)
		out[c.name] = r
		t.AddRow(c.name,
			time.Duration(r.WriteLatency.Percentile(50)),
			time.Duration(r.WriteLatency.Percentile(90)),
			time.Duration(r.WriteLatency.Percentile(99)),
			time.Duration(r.WriteLatency.Percentile(99.9)))
	}
	t.Render(w)
	return out
}

// Fig6 reproduces write throughput vs client count.
func Fig6(w io.Writer) map[string][]float64 {
	clientCounts := []int{1, 2, 5, 10, 15, 20, 25, 30}
	configs := []struct {
		name string
		p    KVParams
	}{
		{"Unreplicated", KVParams{Mode: ModeUnreplicated}},
		{"Async (f=3)", KVParams{Mode: ModeAsync, F: 3}},
		{"CURP (f=1)", KVParams{Mode: ModeCURP, F: 1}},
		{"CURP (f=2)", KVParams{Mode: ModeCURP, F: 2}},
		{"CURP (f=3)", KVParams{Mode: ModeCURP, F: 3}},
		{"Original RAMCloud", KVParams{Mode: ModeOriginal, F: 3}},
	}
	headers := []string{"config"}
	for _, c := range clientCounts {
		headers = append(headers, fmt.Sprintf("%d cli", c))
	}
	t := stats.NewTable("Figure 6: write throughput (k ops/s) vs clients", headers...)
	out := make(map[string][]float64)
	for _, c := range configs {
		row := []interface{}{c.name}
		for _, n := range clientCounts {
			p := c.p
			p.Clients = n
			p.Ops = FigureOps
			p.Seed = 61
			r := RunKV(p)
			out[c.name] = append(out[c.name], r.ThroughputOpsPerSec)
			row = append(row, fmt.Sprintf("%.0f", r.ThroughputOpsPerSec/1000))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return out
}

// Fig7 reproduces the YCSB-A/B latency CCDFs (Zipfian 0.99, 1M keys).
func Fig7(w io.Writer) map[string]*KVResult {
	out := make(map[string]*KVResult)
	for _, wl := range []struct {
		name      string
		writeFrac float64
	}{{"YCSB-A (50% writes)", 0.5}, {"YCSB-B (5% writes)", 0.05}} {
		t := stats.NewTable("Figure 7: "+wl.name+" write latency, Zipfian(0.99) on 1M keys",
			"config", "p50", "p99", "conflict%")
		for _, c := range []struct {
			name string
			p    KVParams
		}{
			{"Original RAMCloud", KVParams{Mode: ModeOriginal, F: 3}},
			{"CURP (f=3)", KVParams{Mode: ModeCURP, F: 3}},
			{"CURP (f=2)", KVParams{Mode: ModeCURP, F: 2}},
			{"CURP (f=1)", KVParams{Mode: ModeCURP, F: 1}},
			{"Async (f=3)", KVParams{Mode: ModeAsync, F: 3}},
			{"Unreplicated", KVParams{Mode: ModeUnreplicated}},
		} {
			p := c.p
			p.Clients = 1
			p.Ops = FigureOps
			p.WriteFraction = wl.writeFrac
			p.Zipfian = true
			p.Keys = 1_000_000
			p.Seed = 71
			r := RunKV(p)
			out[wl.name+"/"+c.name] = r
			writes := r.FastPath + r.SyncedByMaster + r.SlowPath
			conflict := 0.0
			if c.p.Mode == ModeCURP && writes > 0 {
				conflict = 100 * float64(r.SyncedByMaster+r.SlowPath) / float64(writes)
			}
			t.AddRow(c.name,
				time.Duration(r.WriteLatency.Percentile(50)),
				time.Duration(r.WriteLatency.Percentile(99)),
				fmt.Sprintf("%.2f", conflict))
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	return out
}

// Fig8 reproduces the Redis SET latency CDF.
func Fig8(w io.Writer) map[string]*RedisResult {
	out := make(map[string]*RedisResult)
	t := stats.NewTable("Figure 8: Redis 100B SET latency (1 client)",
		"config", "p50", "p90", "p99")
	for _, c := range []struct {
		name string
		p    RedisParams
	}{
		{"Original Redis (non-durable)", RedisParams{Mode: RedisNonDurable}},
		{"CURP (1 witness)", RedisParams{Mode: RedisCURP, Witnesses: 1}},
		{"CURP (2 witnesses)", RedisParams{Mode: RedisCURP, Witnesses: 2}},
		{"Original Redis (durable)", RedisParams{Mode: RedisDurable}},
	} {
		p := c.p
		p.Clients = 1
		p.Ops = FigureOps
		p.Seed = 81
		r := RunRedis(p)
		out[c.name] = r
		t.AddRow(c.name,
			time.Duration(r.Latency.Percentile(50)),
			time.Duration(r.Latency.Percentile(90)),
			time.Duration(r.Latency.Percentile(99)))
	}
	t.Render(w)
	return out
}

// Fig9 reproduces Redis throughput vs client count.
func Fig9(w io.Writer) map[string][]float64 {
	clientCounts := []int{1, 5, 10, 20, 40, 60}
	headers := []string{"config"}
	for _, c := range clientCounts {
		headers = append(headers, fmt.Sprintf("%d cli", c))
	}
	t := stats.NewTable("Figure 9: Redis SET throughput (k ops/s) vs clients", headers...)
	out := make(map[string][]float64)
	for _, c := range []struct {
		name string
		p    RedisParams
	}{
		{"Original Redis (non-durable)", RedisParams{Mode: RedisNonDurable}},
		{"CURP (1 witness)", RedisParams{Mode: RedisCURP, Witnesses: 1}},
		{"CURP (2 witnesses)", RedisParams{Mode: RedisCURP, Witnesses: 2}},
		{"Original Redis (durable)", RedisParams{Mode: RedisDurable}},
	} {
		row := []interface{}{c.name}
		for _, n := range clientCounts {
			p := c.p
			p.Clients = n
			p.Ops = FigureOps
			p.Seed = 91
			r := RunRedis(p)
			out[c.name] = append(out[c.name], r.ThroughputOpsPerSec)
			row = append(row, fmt.Sprintf("%.0f", r.ThroughputOpsPerSec/1000))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return out
}

// Fig10 reproduces median latency for SET/HMSET/INCR. Command type only
// changes the payload mix; the dominant costs (RPC legs, witness RPCs) are
// identical, which is the paper's finding too.
func Fig10(w io.Writer) {
	t := stats.NewTable("Figure 10: median Redis command latency",
		"command", "non-durable", "CURP 1W", "CURP 2W")
	for _, cmd := range []string{"SET", "HMSET", "INCR"} {
		row := []interface{}{cmd}
		for i, cfg := range []RedisParams{
			{Mode: RedisNonDurable},
			{Mode: RedisCURP, Witnesses: 1},
			{Mode: RedisCURP, Witnesses: 2},
		} {
			p := cfg
			p.Clients = 1
			p.Ops = FigureOps / 2
			p.Seed = 101 + int64(i) + int64(len(cmd)) // command varies the seed: distinct runs
			r := RunRedis(p)
			row = append(row, time.Duration(r.Latency.Percentile(50)))
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// Fig11 reproduces the witness associativity simulation (§B.1).
func Fig11(w io.Writer) map[int][]float64 {
	slotCounts := []int{512, 1024, 2048, 3072, 4096}
	ways := []int{1, 2, 4, 8}
	headers := []string{"slots"}
	for _, wy := range ways {
		if wy == 1 {
			headers = append(headers, "direct")
		} else {
			headers = append(headers, fmt.Sprintf("%d-way", wy))
		}
	}
	t := stats.NewTable("Figure 11: expected records before a witness collision", headers...)
	out := make(map[int][]float64)
	for _, slots := range slotCounts {
		row := []interface{}{slots}
		for _, wy := range ways {
			v := witness.ExpectedRecordsToCollision(slots, wy, 300, int64(slots*10+wy))
			out[slots] = append(out[slots], v)
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return out
}

// Fig12 reproduces throughput vs minimum sync batch size (§C.1).
func Fig12(w io.Writer) map[string][]float64 {
	batches := []int{1, 5, 10, 20, 30, 40, 50}
	headers := []string{"config"}
	for _, b := range batches {
		headers = append(headers, fmt.Sprintf("b=%d", b))
	}
	t := stats.NewTable("Figure 12: throughput (k ops/s) vs min sync batch (24 clients)", headers...)
	out := make(map[string][]float64)
	for _, c := range []struct {
		name string
		p    KVParams
	}{
		{"Unreplicated", KVParams{Mode: ModeUnreplicated}},
		{"Async (f=3)", KVParams{Mode: ModeAsync, F: 3}},
		{"CURP (f=1)", KVParams{Mode: ModeCURP, F: 1}},
		{"CURP (f=3)", KVParams{Mode: ModeCURP, F: 3}},
		{"Original RAMCloud", KVParams{Mode: ModeOriginal, F: 3}},
	} {
		row := []interface{}{c.name}
		for _, b := range batches {
			p := c.p
			p.Clients = 24
			p.Ops = FigureOps
			p.SyncBatch = b
			p.Seed = 121
			r := RunKV(p)
			out[c.name] = append(out[c.name], r.ThroughputOpsPerSec)
			row = append(row, fmt.Sprintf("%.0f", r.ThroughputOpsPerSec/1000))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return out
}

// Fig13 reproduces Redis latency vs throughput (closed-loop load sweep).
func Fig13(w io.Writer) {
	t := stats.NewTable("Figure 13: Redis mean latency vs achieved throughput",
		"config", "clients", "throughput (k/s)", "mean latency")
	for _, c := range []struct {
		name string
		p    RedisParams
	}{
		{"Original Redis (non-durable)", RedisParams{Mode: RedisNonDurable}},
		{"CURP (1 witness)", RedisParams{Mode: RedisCURP, Witnesses: 1}},
		{"CURP (2 witnesses)", RedisParams{Mode: RedisCURP, Witnesses: 2}},
		{"Original Redis (durable)", RedisParams{Mode: RedisDurable}},
	} {
		for _, n := range []int{1, 4, 8, 16, 32, 64} {
			p := c.p
			p.Clients = n
			p.Ops = FigureOps
			p.Seed = 131
			r := RunRedis(p)
			t.AddRow(c.name, n,
				fmt.Sprintf("%.0f", r.ThroughputOpsPerSec/1000),
				time.Duration(int64(r.Latency.Mean())))
		}
	}
	t.Render(w)
}

// ResourceReport prints the §5.2 resource-consumption numbers.
func ResourceReport(w io.Writer) {
	t := stats.NewTable("§5.2 witness resource consumption", "metric", "value", "paper")
	// Witness capacity: records/s at the calibrated per-record cost.
	p := KVParams{}.withDefaults()
	recPerSec := float64(time.Second) / float64(p.WitnessCost)
	t.AddRow("witness record capacity (1 thread)", fmt.Sprintf("%.2fM/s", recPerSec/1e6), "1.27M/s")
	// Memory: default witness geometry.
	wt := witness.MustNew(1, witness.DefaultConfig())
	t.AddRow("memory per master-witness pair", fmt.Sprintf("%.1f MB", float64(wt.MemoryFootprint())/(1<<20)), "≈9 MB")
	// Network amplification.
	base := KVParams{Clients: 4, Ops: 5000, Seed: 3}
	curp := RunKV(KVParams{Mode: ModeCURP, F: 3, Clients: base.Clients, Ops: base.Ops, Seed: base.Seed})
	orig := RunKV(KVParams{Mode: ModeOriginal, F: 3, Clients: base.Clients, Ops: base.Ops, Seed: base.Seed})
	t.AddRow("payload network amplification (f=3)",
		fmt.Sprintf("%.2fx", float64(curp.PayloadBytes)/float64(orig.PayloadBytes)), "1.75x")
	t.Render(w)
}
