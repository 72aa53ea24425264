package main

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// fakeStore is an in-memory stand-in for the cluster the checker reads.
type fakeStore map[string][]byte

func (f fakeStore) Get(_ context.Context, key []byte) ([]byte, bool, error) {
	v, ok := f[string(key)]
	return v, ok, nil
}

// settled builds a plan, a ledger and a store that agree: what a correct
// round leaves behind. The corruption tests each break one thing.
func settled(t *testing.T, name string) (*plan, *ledger, fakeStore, protoCounts) {
	t.Helper()
	return settledFor(t, findWorkload(name))
}

// small is workload name with a key space below the check's sample size, so
// the check reads every written key.
func small(name string) *workloadSpec {
	w := *findWorkload(name)
	w.Preload = 100
	return &w
}

func settledFor(t *testing.T, w *workloadSpec) (*plan, *ledger, fakeStore, protoCounts) {
	t.Helper()
	p := newPlan(w, 11, 0, opsFor(w, 0, true))
	l := newLedger(p)
	st := fakeStore{}
	for i := 0; i < w.Preload; i++ {
		l.lastTag[i] = valueTag(p.seed, 0, phasePreload, i)
		l.updates++
	}
	for i, o := range p.ops {
		switch o.kind {
		case opPut, opRePut:
			l.lastTag[o.a] = valueTag(p.seed, 0, phaseTimed, i)
			l.updates++
		case opIncr:
			l.counter[o.a]++
			l.updates++
		}
	}
	for i := range l.counter {
		if w.Accounts > 0 {
			l.counter[i] = accountStart
			l.start += accountStart
		}
	}
	if w.Accounts > 0 { // one acknowledged transfer
		l.counter[0]--
		l.counter[1]++
		l.updates++
		l.unacked++
	}
	for i, tag := range l.lastTag {
		if tag != 0 {
			v := make([]byte, valueSize)
			fillValue(v, tag)
			st[string(p.keys[i])] = v
		}
	}
	for i, n := range l.counter {
		st[string(p.counters[i])] = []byte(strconv.FormatInt(n, 10))
	}
	return p, l, st, protoCounts{fast: l.updates}
}

func TestVerifyAcceptsAConsistentStore(t *testing.T) {
	for i := range workloads {
		p, l, st, pc := settled(t, workloads[i].Name)
		if err := verify(context.Background(), st, p, l, pc); err != nil {
			t.Errorf("%s: %v", workloads[i].Name, err)
		}
	}
}

func wantViolation(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted result passed the check (want %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("check failed with %q, want it to mention %q", err, fragment)
	}
}

// A dropped acknowledgement: the program said a Put was durable, but the
// store still holds the previous value.
func TestVerifyCatchesDroppedAck(t *testing.T) {
	p, l, st, pc := settledFor(t, small("geo-conflict"))
	victim := p.ops[1].a // the re-put of the first cycle
	stale := make([]byte, valueSize)
	fillValue(stale, valueTag(p.seed, 0, phaseTimed, 0)) // the value the re-put overwrote
	st[string(p.keys[victim])] = stale
	wantViolation(t, verify(context.Background(), st, p, l, pc), "not the last acknowledged")

	delete(st, string(p.keys[victim]))
	wantViolation(t, verify(context.Background(), st, p, l, pc), "not the last acknowledged")
}

// A double-applied increment: RIFL's exactly-once guarantee broken.
func TestVerifyCatchesDoubleAppliedIncrement(t *testing.T) {
	p, l, st, pc := settled(t, "geo-conflict")
	st[string(p.counters[0])] = []byte(strconv.FormatInt(l.counter[0]+1, 10))
	wantViolation(t, verify(context.Background(), st, p, l, pc), "exactly-once")
}

// A transfer that debited one account and never credited the other.
func TestVerifyCatchesLostBalance(t *testing.T) {
	p, l, st, pc := settled(t, "shard-txn")
	l.counter[1]-- // the ledger and the store agree account by account,
	st[string(p.counters[1])] = []byte(strconv.FormatInt(l.counter[1], 10))
	wantViolation(t, verify(context.Background(), st, p, l, pc), "conserve") // but money vanished
}

// Updates the client's outcome counters cannot account for.
func TestVerifyCatchesStatsMismatch(t *testing.T) {
	p, l, st, pc := settled(t, "put-seq")
	pc.fast--
	wantViolation(t, verify(context.Background(), st, p, l, pc), "client stats")
	pc.fast += 2
	wantViolation(t, verify(context.Background(), st, p, l, pc), "client stats")

	// Fire-and-forget operations may or may not have been counted yet.
	p, l, st, pc = settled(t, "shard-txn")
	pc.fast += l.unacked
	if err := verify(context.Background(), st, p, l, pc); err != nil {
		t.Errorf("stats within the fire-and-forget allowance rejected: %v", err)
	}
	pc.fast++
	wantViolation(t, verify(context.Background(), st, p, l, pc), "client stats")
}
