// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5, §B, §C), regenerating each artifact's rows/series via
// the discrete-event simulator (internal/sim) or the real components.
// Run with:
//
//	go test -bench=. -benchmem
//
// Metrics reported via b.ReportMetric use the paper's units so the shapes
// are directly comparable. cmd/curpbench prints the complete series with
// larger op counts; the real stack's measured baseline is in
// bench/README.md.
package curp

import (
	"context"
	"curp/internal/commute"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"curp/internal/rifl"
	"curp/internal/sim"
	"curp/internal/stats"
	"curp/internal/witness"
	"curp/internal/workload"
)

const benchOps = 6000

// BenchmarkTable1ClusterConfig prints the simulated configuration that
// substitutes the paper's hardware table (run with -v to see it).
func BenchmarkTable1ClusterConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.Table1(io.Discard)
	}
}

// BenchmarkFig5WriteLatencyCCDF regenerates Figure 5: the write-latency
// distribution for original / CURP(f=1..3) / unreplicated configurations.
func BenchmarkFig5WriteLatencyCCDF(b *testing.B) {
	run := func(b *testing.B, p sim.KVParams) {
		var last *sim.KVResult
		for i := 0; i < b.N; i++ {
			p.Ops = benchOps
			p.Clients = 1
			p.Seed = 51
			last = sim.RunKV(p)
		}
		b.ReportMetric(stats.Micros(time.Duration(last.WriteLatency.Percentile(50))), "p50-us")
		b.ReportMetric(stats.Micros(time.Duration(last.WriteLatency.Percentile(99))), "p99-us")
	}
	b.Run("Original-f3", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeOriginal, F: 3}) })
	b.Run("CURP-f3", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 3}) })
	b.Run("CURP-f2", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 2}) })
	b.Run("CURP-f1", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 1}) })
	b.Run("Unreplicated", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeUnreplicated}) })
}

// BenchmarkFig6Throughput regenerates Figure 6: saturated single-master
// write throughput per configuration (24 closed-loop clients).
func BenchmarkFig6Throughput(b *testing.B) {
	run := func(b *testing.B, p sim.KVParams) {
		var last *sim.KVResult
		for i := 0; i < b.N; i++ {
			p.Ops = benchOps
			p.Clients = 24
			p.Seed = 61
			last = sim.RunKV(p)
		}
		b.ReportMetric(last.ThroughputOpsPerSec/1000, "kops/s")
	}
	b.Run("Unreplicated", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeUnreplicated}) })
	b.Run("Async-f3", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeAsync, F: 3}) })
	b.Run("CURP-f1", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 1}) })
	b.Run("CURP-f2", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 2}) })
	b.Run("CURP-f3", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeCURP, F: 3}) })
	b.Run("Original-f3", func(b *testing.B) { run(b, sim.KVParams{Mode: sim.ModeOriginal, F: 3}) })
}

// BenchmarkWitnessRecordThroughput regenerates the §5.2 witness-capacity
// microbenchmark on the REAL witness data structure: record RPC handling
// with one batched gc per 50 records (paper: 1.27M records/s/thread).
func BenchmarkWitnessRecordThroughput(b *testing.B) {
	w := witness.MustNew(1, witness.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	var gcs []witness.GCKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kh := rng.Uint64()
		id := ridBench(1, uint64(i+1))
		w.Record(1, []uint64{kh}, id, nil, commute.ClassWrite)
		gcs = append(gcs, witness.GCKey{KeyHash: kh, ID: id})
		if len(gcs) == 50 {
			w.GC(gcs)
			gcs = gcs[:0]
		}
	}
	b.StopTimer()
	perSec := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(perSec/1e6, "Mrecords/s")
}

// BenchmarkWitnessMemory reports the §5.2 per-master-witness-pair memory
// footprint (paper: ≈9MB).
func BenchmarkWitnessMemory(b *testing.B) {
	var fp int64
	for i := 0; i < b.N; i++ {
		w := witness.MustNew(1, witness.DefaultConfig())
		fp = w.MemoryFootprint()
	}
	b.ReportMetric(float64(fp)/(1<<20), "MB")
}

// BenchmarkNetworkAmplification reports the §5.2 payload amplification
// (paper: 1.75× for f=3 — 7 copies vs 4).
func BenchmarkNetworkAmplification(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		curp := sim.RunKV(sim.KVParams{Mode: sim.ModeCURP, F: 3, Clients: 4, Ops: benchOps, Seed: 3})
		orig := sim.RunKV(sim.KVParams{Mode: sim.ModeOriginal, F: 3, Clients: 4, Ops: benchOps, Seed: 3})
		ratio = float64(curp.PayloadBytes) / float64(orig.PayloadBytes)
	}
	b.ReportMetric(ratio, "x-amplification")
}

// BenchmarkFig7YCSBLatency regenerates Figure 7: write latency under the
// skewed YCSB-A and YCSB-B mixes, reporting the conflict rate that causes
// the 2-RTT kink.
func BenchmarkFig7YCSBLatency(b *testing.B) {
	run := func(b *testing.B, writeFrac float64, mode sim.Mode, f int) {
		var last *sim.KVResult
		for i := 0; i < b.N; i++ {
			last = sim.RunKV(sim.KVParams{
				Mode: mode, F: f, Clients: 1, Ops: benchOps, Seed: 71,
				WriteFraction: writeFrac, Zipfian: true, Keys: 1_000_000,
			})
		}
		b.ReportMetric(stats.Micros(time.Duration(last.WriteLatency.Percentile(50))), "p50-us")
		writes := last.FastPath + last.SyncedByMaster + last.SlowPath
		if mode == sim.ModeCURP && writes > 0 {
			b.ReportMetric(100*float64(last.SyncedByMaster+last.SlowPath)/float64(writes), "conflict-%")
		}
	}
	b.Run("YCSB-A/CURP-f3", func(b *testing.B) { run(b, 0.5, sim.ModeCURP, 3) })
	b.Run("YCSB-A/Original", func(b *testing.B) { run(b, 0.5, sim.ModeOriginal, 3) })
	b.Run("YCSB-B/CURP-f3", func(b *testing.B) { run(b, 0.05, sim.ModeCURP, 3) })
	b.Run("YCSB-B/Original", func(b *testing.B) { run(b, 0.05, sim.ModeOriginal, 3) })
}

// BenchmarkFig8RedisLatencyCDF regenerates Figure 8: Redis SET latency per
// durability configuration.
func BenchmarkFig8RedisLatencyCDF(b *testing.B) {
	run := func(b *testing.B, p sim.RedisParams) {
		var last *sim.RedisResult
		for i := 0; i < b.N; i++ {
			p.Clients = 1
			p.Ops = benchOps
			p.Seed = 81
			last = sim.RunRedis(p)
		}
		b.ReportMetric(stats.Micros(time.Duration(last.Latency.Percentile(50))), "p50-us")
		b.ReportMetric(stats.Micros(time.Duration(last.Latency.Percentile(90))), "p90-us")
	}
	b.Run("NonDurable", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisNonDurable}) })
	b.Run("CURP-1W", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 1}) })
	b.Run("CURP-2W", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 2}) })
	b.Run("Durable", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisDurable}) })
}

// BenchmarkFig9RedisThroughput regenerates Figure 9 at 48 clients.
func BenchmarkFig9RedisThroughput(b *testing.B) {
	run := func(b *testing.B, p sim.RedisParams) {
		var last *sim.RedisResult
		for i := 0; i < b.N; i++ {
			p.Clients = 48
			p.Ops = benchOps
			p.Seed = 91
			last = sim.RunRedis(p)
		}
		b.ReportMetric(last.ThroughputOpsPerSec/1000, "kops/s")
	}
	b.Run("NonDurable", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisNonDurable}) })
	b.Run("CURP-1W", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 1}) })
	b.Run("Durable", func(b *testing.B) { run(b, sim.RedisParams{Mode: sim.RedisDurable}) })
}

// BenchmarkFig10RedisCommands regenerates Figure 10: per-command medians.
// SET/HMSET/INCR share the same RPC structure, so (as the paper found) the
// CURP overhead is command-independent.
func BenchmarkFig10RedisCommands(b *testing.B) {
	for _, cmd := range []string{"SET", "HMSET", "INCR"} {
		for _, cfg := range []struct {
			name string
			p    sim.RedisParams
		}{
			{"NonDurable", sim.RedisParams{Mode: sim.RedisNonDurable}},
			{"CURP-1W", sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 1}},
			{"CURP-2W", sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 2}},
		} {
			b.Run(cmd+"/"+cfg.name, func(b *testing.B) {
				var last *sim.RedisResult
				for i := 0; i < b.N; i++ {
					p := cfg.p
					p.Clients = 1
					p.Ops = benchOps
					p.Seed = 101 + int64(len(cmd))
					last = sim.RunRedis(p)
				}
				b.ReportMetric(stats.Micros(time.Duration(last.Latency.Percentile(50))), "p50-us")
			})
		}
	}
}

// BenchmarkFig11Associativity regenerates Figure 11 on the REAL witness:
// expected records before a set-full collision, by geometry.
func BenchmarkFig11Associativity(b *testing.B) {
	for _, ways := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("slots4096/ways%d", ways), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = witness.ExpectedRecordsToCollision(4096, ways, 50, int64(ways))
			}
			b.ReportMetric(v, "records-to-collision")
		})
	}
}

// BenchmarkFig12BatchSweep regenerates Figure 12: throughput vs minimum
// sync batch size.
func BenchmarkFig12BatchSweep(b *testing.B) {
	for _, batch := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("CURP-f3/batch%d", batch), func(b *testing.B) {
			var last *sim.KVResult
			for i := 0; i < b.N; i++ {
				last = sim.RunKV(sim.KVParams{
					Mode: sim.ModeCURP, F: 3, Clients: 24, Ops: benchOps,
					SyncBatch: batch, Seed: 121,
				})
			}
			b.ReportMetric(last.ThroughputOpsPerSec/1000, "kops/s")
			b.ReportMetric(float64(last.SyncedOps)/float64(last.Syncs), "effective-batch")
		})
	}
}

// BenchmarkFig13RedisLatencyVsThroughput regenerates Figure 13: mean
// latency at increasing offered load.
func BenchmarkFig13RedisLatencyVsThroughput(b *testing.B) {
	for _, clients := range []int{1, 16, 64} {
		for _, cfg := range []struct {
			name string
			p    sim.RedisParams
		}{
			{"NonDurable", sim.RedisParams{Mode: sim.RedisNonDurable}},
			{"CURP-1W", sim.RedisParams{Mode: sim.RedisCURP, Witnesses: 1}},
			{"Durable", sim.RedisParams{Mode: sim.RedisDurable}},
		} {
			b.Run(fmt.Sprintf("%s/clients%d", cfg.name, clients), func(b *testing.B) {
				var last *sim.RedisResult
				for i := 0; i < b.N; i++ {
					p := cfg.p
					p.Clients = clients
					p.Ops = benchOps
					p.Seed = 131
					last = sim.RunRedis(p)
				}
				b.ReportMetric(last.ThroughputOpsPerSec/1000, "kops/s")
				b.ReportMetric(last.Latency.Mean()/1000, "mean-us")
			})
		}
	}
}

// BenchmarkShardedThroughput measures aggregate put throughput of the real
// stack as partitions are added: 8 closed-loop workers spread distinct
// keys over 1 vs 4 shards. With one shard every update serializes at one
// master; with four, the ring spreads the same offered load over four
// masters, so aggregate ops/s should scale >1×.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			c, err := StartSharded(Options{F: 1, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			const workers = 8
			clients := make([]*ShardedClient, workers)
			for w := range clients {
				cl, err := c.NewClient(fmt.Sprintf("bench-%d", w))
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				clients[w] = cl
			}
			value := workload.Value(1, 100)
			ctx := context.Background()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := clients[w]
					for i := w; i < b.N; i += workers {
						key := workload.Key(uint64(i), 30)
						if _, err := cl.Put(ctx, key, value); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1000, "kops/s")
		})
	}
}

// BenchmarkEndToEndPut measures the real (non-simulated) cluster stack:
// client → master + witnesses over the in-memory transport.
func BenchmarkEndToEndPut(b *testing.B) {
	c, err := Start(Options{F: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	value := workload.Value(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := workload.Key(uint64(i), 30)
		if _, err := cl.Put(ctx, key, value); err != nil {
			b.Fatal(err)
		}
	}
}

func ridBench(c, s uint64) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(c), Seq: rifl.Seq(s)}
}

// BenchmarkPipelineThroughput measures SINGLE-client put throughput as a
// function of pipeline depth on the real stack: depth 1 is the blocking
// one-op-per-RTT pattern; deeper pipelines coalesce a whole batch into
// one UpdateBatch RPC plus one RecordBatch per witness. The paper's §5.2
// evaluation saturates the cluster with asynchronous requests; this is
// the client-side lever that makes one client able to do it.
func BenchmarkPipelineThroughput(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c, err := Start(Options{F: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl, err := c.NewClient("pipe-bench")
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			value := workload.Value(1, 100)
			b.ResetTimer()
			i := 0
			for i < b.N {
				p := cl.NewPipeline()
				for j := 0; j < depth && i < b.N; j++ {
					p.Put(workload.Key(uint64(i), 30), value)
					i++
				}
				if err := p.Flush(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1000, "kops/s")
			// Distinct keys: the pipelined path must keep the 1-RTT rule.
			if st := cl.Stats(); st.FastPath == 0 {
				b.Fatalf("pipelined path lost the fast path: %+v", st)
			}
		})
	}
}
