package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"curp/internal/workload"
)

// opKind is one call into the public client.
type opKind uint8

const (
	opPut   opKind = iota // Put(keys[a], value(tag))
	opGet                 // Get(keys[a])
	opRePut               // Put(keys[a], value(tag)) right after an opPut of the same key: the designed conflict
	opIncr                // Increment(counters[a], +1)
	opTxn                 // move 1 between account a (on one shard) and account b (on the other)
)

// op is one generated operation. For opTxn, a and b are raw draws that the
// runner reduces modulo the number of accounts each shard owns, so the
// stream itself does not depend on the routing ring.
type op struct {
	kind opKind
	a, b uint32
}

// plan is everything one round feeds the program, derived from (workload,
// seed, round, op count) and nothing else.
type plan struct {
	w        *workloadSpec
	seed     int64
	keys     [][]byte // blob keys; the first w.Preload are preloaded
	counters [][]byte // counter keys: accounts (shard-txn) or the one hot counter (geo-conflict)
	warm     []op     // unrecorded warm-up
	ops      []op     // the timed stream
}

// splitmix is the SplitMix64 finaliser: a cheap bijective mix used to derive
// independent sub-seeds and value tags.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one named random stream of a round.
func subSeed(seed int64, round int, stream uint64) int64 {
	return int64(splitmix(splitmix(uint64(seed))+uint64(round)*1000003+stream) >> 1)
}

// makeKey returns a keySize-byte printable key unique in (seed, prefix, i).
func makeKey(prefix byte, seed int64, i int) []byte {
	k := []byte(fmt.Sprintf("%c%07x-%021d", prefix, uint64(seed)&0xfffffff, i))
	if len(k) != keySize {
		panic(fmt.Sprintf("bench: key %q is not %d bytes", k, keySize))
	}
	return k
}

// fillValue writes the valueSize-byte value identified by tag into buf. The
// tag is recoverable from the first 8 bytes and the rest is a function of
// it, so the checker can tell a torn or stale value from the expected one.
func fillValue(buf []byte, tag uint64) {
	binary.LittleEndian.PutUint64(buf, tag)
	x := tag
	for i := 8; i+8 <= len(buf); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for i := len(buf) &^ 7; i < len(buf); i++ {
		buf[i] = byte(tag >> (8 * uint(i&7)))
	}
}

// valueTag names the value written by the i-th operation of a phase
// (phasePreload, phaseWarm, phaseTimed) of one round. Tags are never 0.
func valueTag(seed int64, round int, phase uint64, i int) uint64 {
	return splitmix(uint64(seed)^splitmix(uint64(round)<<40|phase<<36|uint64(i))) | 1
}

const (
	phasePreload uint64 = iota
	phaseWarm
	phaseTimed
)

// opsFor scales a workload's per-round op count to the requested measuring
// time and rounds it to a whole number of blocks of whole pipeline flushes
// (or 4-op cycles), so every block holds the same work.
func opsFor(w *workloadSpec, seconds float64, quick bool) int {
	n := float64(w.Ops) * seconds / runSeconds
	if quick {
		n = float64(w.Ops) * 0.02
	}
	unit := blocksPerRound * w.Depth
	if w.Mix == mixGeo {
		unit = blocksPerRound * 4
	}
	k := int(n) / unit
	if k < 1 {
		k = 1
	}
	return k * unit
}

// newPlan generates round `round` of workload w: keys, warm-up and timed
// stream. The same arguments always give the same plan.
func newPlan(w *workloadSpec, seed int64, round, nOps int) *plan {
	p := &plan{w: w, seed: seed}
	nWarm := max(nOps*warmPct/100, minWarmOps)
	if rem := nWarm % max(w.Depth, 1); rem != 0 {
		nWarm += w.Depth - rem
	}
	nKeys := w.Preload
	if w.Mix == mixGeo {
		nWarm += (4 - nWarm%4) % 4
		nKeys += (nOps + nWarm) / 4 // one fresh key per cycle, beyond the preloaded ones
	}
	p.keys = make([][]byte, nKeys)
	for i := range p.keys {
		p.keys[i] = makeKey('b', seed, i)
	}
	nCounters := w.Accounts
	if w.Mix == mixGeo {
		nCounters = 1
	}
	p.counters = make([][]byte, nCounters)
	for i := range p.counters {
		p.counters[i] = makeKey('c', seed, i)
	}

	fresh := w.Preload // next never-written key index (geo-conflict)
	gen := func(n int, stream uint64) []op {
		rng := rand.New(rand.NewSource(subSeed(seed, round, stream)))
		out := make([]op, 0, n)
		switch w.Mix {
		case mixPut:
			for len(out) < n {
				out = append(out, op{kind: opPut, a: uint32(rng.Intn(w.Preload))})
			}
		case mixYCSBA:
			z := workload.NewScrambledZipfian(uint64(w.Preload), workload.DefaultZipfTheta, subSeed(seed, round, stream+100))
			for len(out) < n {
				k := opGet
				if rng.Float64() < 0.5 {
					k = opPut
				}
				out = append(out, op{kind: k, a: uint32(z.Next())})
			}
		case mixShardTxn:
			for len(out) < n {
				if rng.Float64() < 0.2 {
					out = append(out, op{kind: opTxn, a: rng.Uint32(), b: rng.Uint32()})
				} else {
					out = append(out, op{kind: opPut, a: uint32(rng.Intn(w.Preload))})
				}
			}
		case mixGeo:
			for len(out) < n {
				k := uint32(fresh)
				fresh++
				out = append(out,
					op{kind: opPut, a: k}, op{kind: opRePut, a: k},
					op{kind: opIncr, a: 0}, op{kind: opIncr, a: 0})
			}
		}
		return out
	}
	p.warm = gen(nWarm, 1)
	p.ops = gen(nOps, 2)
	return p
}
