package main

import (
	"testing"

	"curp/internal/metrics"
)

func ws(trace, id uint64, stage string, start, dur int64) metrics.WireSpan {
	return metrics.WireSpan{TraceID: trace, SpanID: id, Stage: stage, Start: start, Dur: dur}
}

// Client span [100,200). apply [120,140); witness-record [110,150) runs in
// parallel and started earlier, so apply (the later start) owns [120,140);
// sync-wait [150,190) wraps backup-append [160,180); a background span
// [210,260) of the same trace lies outside the client's wait.
func TestSplitSpanPartitionsTheClientSpan(t *testing.T) {
	spans := []metrics.WireSpan{
		ws(1, 1, "apply", 120, 20),
		ws(1, 2, "witness-record", 110, 40),
		ws(1, 3, "sync-wait", 150, 40),
		ws(1, 4, "backup-append", 160, 20),
		ws(1, 5, "backup-append", 210, 50),
	}
	led := splitSpan(100, 200, spans)
	want := map[string]int64{"apply": 20, "witness-record": 20, "sync-wait": 20, "backup-append": 20}
	for stage, ns := range want {
		if led.stage[stage] != ns {
			t.Errorf("%s self time = %d, want %d", stage, led.stage[stage], ns)
		}
	}
	if led.residual != 20 { // [100,110) and [190,200)
		t.Errorf("residual = %d, want 20", led.residual)
	}
	sum := led.residual
	for _, ns := range led.stage {
		sum += ns
	}
	if sum != led.total || led.total != 100 {
		t.Errorf("parts sum to %d of a %d ns client span", sum, led.total)
	}
}

func TestBuildLedgerMatchesTracesByTimeAndClosesTheLedger(t *testing.T) {
	var client []span
	prog := progSpans{}
	for i := 0; i < 50; i++ {
		start := int64(1000 + i*1000)
		length := int64(100 + i) // 100..149 ns
		name := "client.put"
		if i%5 == 4 {
			name = "client.get" // reads are not part of a write's ledger
		}
		client = append(client, span{Name: name, Op: i, Start: start, End: start + length})
		if i%2 == 0 { // only every other op's trace was still retained
			tr := uint64(i + 1)
			prog[tr] = map[uint64]metrics.WireSpan{
				1: ws(tr, 1, "apply", start+10, 30),
				2: ws(tr, 2, "lock-wait", start+50, 10), // not a named stage: "other"
			}
		}
	}
	prog[999] = map[uint64]metrics.WireSpan{1: ws(999, 1, "apply", 5, 10)} // preload traffic, before any client span
	led := buildLedger(client, prog)
	if led.matched != 20 { // 25 traced ops, 5 of them reads
		t.Fatalf("matched %d client spans, want 20", led.matched)
	}
	if led.band == 0 || led.band > led.matched/2 {
		t.Fatalf("median band holds %d of %d", led.band, led.matched)
	}
	if !near(led.stageUs["apply"], 0.030) || !near(led.otherUs, 0.010) {
		t.Errorf("apply %.4f us, other %.4f us; want 0.030, 0.010", led.stageUs["apply"], led.otherUs)
	}
	sum := led.residualUs + led.otherUs
	for _, v := range led.stageUs {
		sum += v
	}
	if !near(sum, led.clientUs) {
		t.Errorf("stages + other + residual = %.6f us, client span %.6f us", sum, led.clientUs)
	}
	if led.clientUs < 0.115 || led.clientUs > 0.135 {
		t.Errorf("band mean %.4f us is not near the median client span (~0.125 us)", led.clientUs)
	}

	// Without a trace endpoint every write span counts, unsplit.
	led = buildLedger(client, nil)
	if led.matched != 40 || !near(led.residualUs, led.clientUs) {
		t.Errorf("untraced ledger: matched %d, residual %.4f of %.4f", led.matched, led.residualUs, led.clientUs)
	}
}
