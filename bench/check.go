package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
)

// ledger is the generator's own record of what the program acknowledged:
// the state a correct store must hold once the round is over. The runner
// updates it after every acknowledged call (a few array stores).
type ledger struct {
	lastTag []uint64 // per blob key: tag of the last acknowledged Put, 0 = never written
	counter []int64  // per counter key: start value plus acknowledged deltas
	start   int64    // sum of the counters' preloaded values (balance to conserve)
	updates uint64   // acknowledged operations of the client's update engine
	unacked uint64   // fire-and-forget engine operations (transaction decision pruning): issued, completion not observed
}

func newLedger(p *plan) *ledger {
	return &ledger{
		lastTag: make([]uint64, len(p.keys)),
		counter: make([]int64, len(p.counters)),
	}
}

// reader is the slice of the client the checker needs.
type reader interface {
	Get(ctx context.Context, key []byte) (value []byte, ok bool, err error)
}

// protoCounts are the client's protocol outcome counters over the whole
// life of the round's client (preload, warm-up and timed ops).
type protoCounts struct {
	fast, synced, slow uint64
}

// checkSample is how many written keys a round's check reads back; under
// injected delay every read costs a round trip, so that workload reads fewer.
const (
	checkSample        = 1000
	checkSampleDelayed = 250
)

// verify compares the store with the ledger after a round: sampled keys read
// back the last acknowledged value, every counter equals its acknowledged
// total (exactly-once), account balances are conserved, and the client's
// outcome counters account for every update issued. It returns the first
// violation found.
func verify(ctx context.Context, r reader, p *plan, l *ledger, pc protoCounts) error {
	rng := rand.New(rand.NewSource(subSeed(p.seed, 0, 99)))
	want := make([]byte, valueSize)
	written := make([]int, 0, len(l.lastTag))
	for i, tag := range l.lastTag {
		if tag != 0 {
			written = append(written, i)
		}
	}
	n := min(checkSample, len(written))
	if p.w.LatencyMs > 0 {
		n = min(checkSampleDelayed, len(written))
	}
	for _, j := range rng.Perm(len(written))[:n] {
		i := written[j]
		got, ok, err := r.Get(ctx, p.keys[i])
		if err != nil {
			return fmt.Errorf("read-back of key %d: %w", i, err)
		}
		fillValue(want, l.lastTag[i])
		if !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("read-back of key %d (%s): stored value is not the last acknowledged one (found=%v, %d bytes)", i, p.keys[i], ok, len(got))
		}
	}

	var total int64
	for i, wantN := range l.counter {
		got, ok, err := r.Get(ctx, p.counters[i])
		if err != nil {
			return fmt.Errorf("read of counter %d: %w", i, err)
		}
		var gotN int64
		if ok {
			if gotN, err = strconv.ParseInt(string(got), 10, 64); err != nil {
				return fmt.Errorf("counter %d holds %q: %w", i, got, err)
			}
		}
		if gotN != wantN {
			return fmt.Errorf("counter %d = %d, acknowledged increments give %d (exactly-once violated)", i, gotN, wantN)
		}
		total += gotN
	}
	if p.w.Accounts > 0 && total != l.start {
		return fmt.Errorf("account balances sum to %d, preloaded %d (transfers must conserve)", total, l.start)
	}

	if got := pc.fast + pc.synced + pc.slow; got < l.updates || got > l.updates+l.unacked {
		return fmt.Errorf("client stats: FastPath %d + SyncedByMaster %d + SlowPath %d = %d, but %d updates were acknowledged (+%d fire-and-forget)",
			pc.fast, pc.synced, pc.slow, got, l.updates, l.unacked)
	}
	return nil
}
