package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"curp/internal/transport"
)

// layerLoop is the minimum duration of each layer loop at runSeconds.
const layerLoop = 300 * time.Millisecond

// tracedShare is the size of the traced round (and of the untraced
// reference round it is compared with) relative to a timed round.
const tracedShare = 0.25

// runWorkload is one invocation: the end-to-end rounds, or with trace set
// the layer loops, a reference round and the traced round.
func runWorkload(ctx context.Context, w *workloadSpec, seed int64, seconds float64, trace bool) error {
	nOps := opsFor(w, seconds, false)
	if trace {
		nOps = opsFor(w, seconds*tracedShare, false)
	}
	if err := printEnv(w, seed, nOps); err != nil {
		return err
	}
	if trace {
		return runTrace(ctx, w, seed, seconds, nOps)
	}
	rs, spins, err := timedRounds(ctx, w, seed, nOps, rounds)
	if err != nil {
		return err
	}
	vals, samples, attempted, failed := summarize(w, rs)
	reportDisturbed(spins)
	printTable(os.Stdout, fmt.Sprintf("%s end-to-end (%d rounds of %d ops)", w.Name, len(rs), nOps), endToEnd, vals, samples, "")
	return emit(buildResult(endToEnd, vals, attempted, failed))
}

// summarize folds the rounds of one invocation into end-to-end values.
func summarize(w *workloadSpec, rs []*roundResult) (vals map[string]float64, samples map[string]int, attempted, failed int) {
	var per []map[string]float64
	samples = map[string]int{}
	for _, r := range rs {
		per = append(per, roundMetrics(w, r))
		attempted += r.nOps
		failed += r.failed
		samples["write_p50_us"] = len(r.lat[classWrite])
		samples["ops_per_s"] = len(r.blockDur)
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %d operations failed, first: %v\n", w.Name, r.failed, r.firstErr)
		}
	}
	return aggregate(endToEnd, per), samples, attempted, failed
}

// reportDisturbed flags rounds that ran on a machine more than 10% off the
// invocation's median speed.
func reportDisturbed(spins []float64) {
	med := median(spins)
	for i, s := range spins {
		flag := ""
		if math.Abs(s-med) > 0.10*med {
			flag = " disturbed"
		}
		fmt.Printf("round %d: host.spin_ms %.2f%s\n", i, s, flag)
	}
}

// echoRTT is the round trip of an rpc echo under workload w's latency model,
// in µs: the unit protocol cost is read in.
func echoRTT(ctx context.Context, w *workloadSpec) (float64, error) {
	var lat transport.LatencyModel
	if w.LatencyMs > 0 {
		lat = transport.ConstantLatency(time.Duration(w.LatencyMs) * time.Millisecond)
	}
	cl, stop, err := echoServer(transport.NewMemNetwork(lat))
	if err != nil {
		return 0, fmt.Errorf("echo rtt: %w", err)
	}
	defer stop()
	payload := make([]byte, 256)
	us := make([]float64, 0, 200)
	for i := 0; i < cap(us); i++ {
		start := time.Now()
		if _, err := cl.Call(ctx, opEcho, payload); err != nil {
			return 0, fmt.Errorf("echo rtt: %w", err)
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// runTrace produces the per-layer metrics of one workload.
func runTrace(ctx context.Context, w *workloadSpec, seed int64, seconds float64, nOps int) error {
	loop := time.Duration(float64(layerLoop) * seconds / runSeconds)
	vals, err := runLayers(ctx, loop)
	if err != nil {
		return err
	}

	// Untraced reference round: the public client's numbers and the
	// denominator of the tracing overhead.
	spin := spinMs()
	ref, err := runRound(ctx, newPlan(w, seed, 0, nOps), 0, roundHooks{})
	if err != nil {
		return fmt.Errorf("%s reference round: %w", w.Name, err)
	}
	rtt, err := echoRTT(ctx, w)
	if err != nil {
		return err
	}
	vals["host.spin_ms"] = spin
	roundLayerMetrics(w, ref, rtt, vals)

	tr, err := runTracedRound(ctx, newPlan(w, seed, 1, nOps), 1)
	if err != nil {
		return fmt.Errorf("%s traced round: %w", w.Name, err)
	}
	registryMetrics(tr.delta, float64(nOps)/1000, vals)
	refRate := blockMedianRate(ref.blockDur, nOps/blocksPerRound)
	vals["trace.overhead_ratio"] = blockMedianRate(tr.round.blockDur, nOps/blocksPerRound) / refRate
	led := tr.ledger
	vals["trace.client_span_us"] = led.clientUs
	if tr.traced {
		for _, stage := range ledgerStages {
			vals["trace."+strings.ReplaceAll(stage, "-", "_")+"_us"] = led.stageUs[stage]
		}
		if led.clientUs > 0 {
			vals["trace.residual_ratio"] = led.residualUs / led.clientUs
		}
	}
	path, err := writeSpans(w.Name, tr.round.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}

	for name := range vals {
		if m := findMetric(perLayer, name); m == nil || !m.appliesTo(w) {
			delete(vals, name)
		}
	}
	printTable(os.Stdout, fmt.Sprintf("%s per-layer (reference and traced round of %d ops, layer loops of %v)", w.Name, nOps, loop), perLayer, vals, nil, "")
	if tr.traced {
		printLedger(w, led, vals)
	}
	fmt.Printf("benchmark spans: %s (%d spans)\n", path, len(tr.round.spans))
	return emit(buildResult(perLayer, vals, ref.nOps+tr.round.nOps, ref.failed+tr.round.failed))
}

// roundLayerMetrics derives the curp.* and runtime.* metrics from an untimed-
// for-the-driver reference round.
func roundLayerMetrics(w *workloadSpec, r *roundResult, rttUs float64, vals map[string]float64) {
	var total time.Duration
	for _, d := range r.blockDur {
		total += d
	}
	ops := float64(r.nOps)
	vals["curp.ops_per_s_wall"] = ops / total.Seconds()
	writes := nsToUs(r.lat[classWrite])
	vals["curp.write_mean_us"] = mean(writes)
	vals["curp.write_p99_us"] = percentile(writes, 99)
	vals["curp.write_p999_us"] = percentile(writes, 99.9)
	vals["curp.fast_write_rtts"] = percentile(writes, 50) / rttUs
	if w.performs(classRead) {
		reads := nsToUs(r.lat[classRead])
		vals["curp.read_p50_us"] = percentile(reads, 50)
		vals["curp.read_p99_us"] = percentile(reads, 99)
	}
	if w.performs(classTxn) {
		txns := nsToUs(r.lat[classTxn])
		vals["curp.txn_p50_us"] = percentile(txns, 50)
		vals["curp.txn_p99_us"] = percentile(txns, 99)
	}
	if w.performs(classConflict) {
		conf := nsToUs(r.lat[classConflict])
		vals["curp.conflict_p50_us"] = percentile(conf, 50)
		vals["curp.conflict_write_rtts"] = percentile(conf, 50) / rttUs
	}
	vals["runtime.cpu_us_per_op"] = float64(r.cpu) / 1e3 / ops
	vals["runtime.gc_cpu_fraction"] = r.gcCPUFraction
	vals["runtime.gc_cycles"] = float64(r.gcCycles)
	vals["runtime.heap_end_mb"] = float64(r.heapEnd) / (1 << 20)
}

// registryMetrics derives the cluster.* and witness.* counters from the
// program's exposition before and after the traced round.
func registryMetrics(d promDelta, kops float64, vals map[string]float64) {
	syncs := d.counter("curp_master_sync_duration_seconds_count")
	vals["cluster.syncs_per_kop"] = syncs / kops
	vals["cluster.sync_batch_entries_mean"] = d.histMean("curp_master_sync_batch_entries")
	vals["cluster.sync_mean_us"] = d.histMean("curp_master_sync_duration_seconds") * 1e6
	vals["cluster.conflict_syncs_per_kop"] = d.counter("curp_master_conflict_syncs_total") / kops
	vals["cluster.hotkey_syncs_per_kop"] = d.counter("curp_master_hotkey_syncs_total") / kops
	vals["cluster.read_blocks_per_kop"] = d.counter("curp_master_read_blocks_total") / kops
	vals["cluster.backup_append_mean_us"] = d.histMean("curp_backup_append_duration_seconds") * 1e6
	n := d.counter("curp_master_op_latency_seconds_count", "op", "update") + d.counter("curp_master_op_latency_seconds_count", "op", "update_batch")
	if n > 0 {
		sum := d.counter("curp_master_op_latency_seconds_sum", "op", "update") + d.counter("curp_master_op_latency_seconds_sum", "op", "update_batch")
		vals["cluster.master_update_mean_us"] = sum / n * 1e6
	}
	vals["witness.rejects_per_kop"] = d.counter("curp_witness_rejects_total") / kops
	vals["witness.gc_drops_per_kop"] = d.counter("curp_witness_gc_drops_total") / kops
}

// printLedger prints the two decompositions of the median traced write side
// by side: the client span split by the program's spans, and the layer loop
// costs times calls per op.
func printLedger(w *workloadSpec, led traceLedger, vals map[string]float64) {
	fmt.Printf("ledger (%s, %d traced writes matched, %d in the median band):\n", w.Name, led.matched, led.band)
	sum := led.residualUs + led.otherUs
	fmt.Printf("  client span %.2f us =", led.clientUs)
	for _, stage := range ledgerStages {
		fmt.Printf(" %s %.2f +", stage, led.stageUs[stage])
		sum += led.stageUs[stage]
	}
	fmt.Printf(" other %.2f + residual %.2f  (sum %.2f us)\n", led.otherUs, led.residualUs, sum)
	perFlush := float64(max(w.Depth, 1))
	rpcs := float64(1 + w.F) // one UpdateBatch to the master, one RecordBatch per witness
	fmt.Printf("  layer loops x calls per flush: rpc.echo %.2f x %.0f, core.client_update %.2f x 1, kv.apply_put %.2f x %.0f, witness.record_gc %.2f x %.0f, rifl %.2f x %.0f, core.conflict_check %.2f x %.0f (us)\n",
		vals["rpc.echo_ns"]/1e3, rpcs, vals["core.client_update_ns"]/1e3,
		vals["kv.apply_put_ns"]/1e3, perFlush, vals["witness.record_gc_ns"]/1e3, perFlush*float64(w.F),
		(vals["rifl.begin_record_ns"]+vals["rifl.session_ns"])/1e3, perFlush, vals["core.conflict_check_ns"]/1e3, perFlush)
}

// envStamp describes the machine and the inputs of an invocation.
type envStamp struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	SpinMs       float64 `json:"host_spin_ms"`
	TimerFloorUs float64 `json:"transport_timer_floor_us"`
	Commit       string  `json:"commit"`
	Workload     string  `json:"workload,omitempty"`
	Seed         int64   `json:"seed"`
	OpsPerRound  int     `json:"ops_per_round,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
}

// printEnv prints the environment stamp that heads every output.
func printEnv(w *workloadSpec, seed int64, nOps int) error {
	floor, err := timerFloorUs()
	if err != nil {
		return err
	}
	st := envStamp{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		SpinMs:       spinMs(),
		TimerFloorUs: floor,
		Commit:       buildCommit(),
		Seed:         seed,
	}
	if w != nil {
		st.Workload, st.OpsPerRound, st.Rounds = w.Name, nOps, rounds
	}
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("env: %s\n", b)
	return nil
}
