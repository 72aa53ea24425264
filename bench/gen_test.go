package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSameSeedSamePlanDifferentSeedDifferentPlan(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		n := opsFor(w, 0, true)
		a, b := newPlan(w, 42, 1, n), newPlan(w, 42, 1, n)
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.warm, b.warm) || !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: the same seed gave two different plans", w.Name)
		}
		c := newPlan(w, 43, 1, n)
		if reflect.DeepEqual(a.keys, c.keys) {
			t.Errorf("%s: seeds 42 and 43 generate the same keys", w.Name)
		}
		if w.Mix != mixGeo && reflect.DeepEqual(a.ops, c.ops) { // geo-conflict's cycle is fixed by design; its keys differ
			t.Errorf("%s: seeds 42 and 43 generate the same op stream", w.Name)
		}
		if d := newPlan(w, 42, 2, n); w.Mix != mixGeo && reflect.DeepEqual(a.ops, d.ops) {
			t.Errorf("%s: rounds 1 and 2 replay the same op stream", w.Name)
		}
		if len(a.ops) != n {
			t.Errorf("%s: %d timed ops, want %d", w.Name, len(a.ops), n)
		}
		for _, k := range a.keys {
			if len(k) != keySize {
				t.Fatalf("%s: key %q is not %d bytes", w.Name, k, keySize)
			}
		}
	}
}

func TestOpsForScalesAndKeepsBlocksWhole(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		full, half := opsFor(w, runSeconds, false), opsFor(w, runSeconds/2.0, false)
		if full != w.Ops {
			t.Errorf("%s: opsFor(run_seconds) = %d, want the declared %d", w.Name, full, w.Ops)
		}
		if half < full*45/100 || half > full*55/100 {
			t.Errorf("%s: half the seconds gave %d ops of %d", w.Name, half, full)
		}
		for _, n := range []int{full, half, opsFor(w, 0, true)} {
			unit := blocksPerRound * w.Depth
			if w.Mix == mixGeo {
				unit = blocksPerRound * 4
			}
			if n <= 0 || n%unit != 0 {
				t.Errorf("%s: %d ops is not a whole number of %d-op units", w.Name, n, unit)
			}
		}
	}
}

// geo-conflict's fast-path ratio is 0.75 by construction: each cycle is a
// first write of a fresh key, the designed conflicting re-write of the same
// key, and two increments of one hot counter that must commute.
func TestGeoCycleByConstruction(t *testing.T) {
	w := findWorkload("geo-conflict")
	p := newPlan(w, 7, 0, opsFor(w, runSeconds, false))
	seen := map[uint32]bool{}
	for i := 0; i < len(p.ops); i += 4 {
		c := p.ops[i : i+4]
		if c[0].kind != opPut || c[1].kind != opRePut || c[2].kind != opIncr || c[3].kind != opIncr {
			t.Fatalf("cycle at %d is %v", i, c)
		}
		if c[0].a != c[1].a || int(c[0].a) < w.Preload || seen[c[0].a] {
			t.Fatalf("cycle at %d: re-put must hit the fresh key just written (%v)", i, c)
		}
		seen[c[0].a] = true
		if c[2].a != 0 || c[3].a != 0 {
			t.Fatalf("cycle at %d: increments must share the hot counter", i)
		}
	}
	for _, o := range p.warm {
		if seen[o.a] && o.kind != opIncr {
			t.Fatal("warm-up and timed ops share a fresh key")
		}
	}
}

func TestMixShares(t *testing.T) {
	count := func(p *plan) map[opKind]int {
		m := map[opKind]int{}
		for _, o := range p.ops {
			m[o.kind]++
		}
		return m
	}
	y := findWorkload("ycsb-a")
	c := count(newPlan(y, 1, 0, 20000))
	if c[opGet] < 9500 || c[opGet] > 10500 || c[opGet]+c[opPut] != 20000 {
		t.Errorf("ycsb-a mix: %v", c)
	}
	s := findWorkload("shard-txn")
	c = count(newPlan(s, 1, 0, 20000))
	if c[opTxn] < 3700 || c[opTxn] > 4300 || c[opTxn]+c[opPut] != 20000 {
		t.Errorf("shard-txn mix: %v", c)
	}
}

func TestValuesAreTaggedAndDeterministic(t *testing.T) {
	a, b := make([]byte, valueSize), make([]byte, valueSize)
	tag := valueTag(5, 1, phaseTimed, 77)
	fillValue(a, tag)
	fillValue(b, tag)
	if !bytes.Equal(a, b) {
		t.Error("the same tag gave two values")
	}
	fillValue(b, valueTag(5, 1, phaseTimed, 78))
	if bytes.Equal(a, b) {
		t.Error("consecutive operations write the same value")
	}
	if valueTag(5, 1, phaseWarm, 77) == tag || valueTag(5, 2, phaseTimed, 77) == tag || valueTag(6, 1, phaseTimed, 77) == tag {
		t.Error("tags collide across phase, round or seed")
	}
	if tag == 0 {
		t.Error("0 is reserved for never written")
	}
}
