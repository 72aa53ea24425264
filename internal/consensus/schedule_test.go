package consensus

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"curp/internal/rifl"
	"curp/internal/witness"
)

var (
	scheduleSeed  = flag.Int64("schedule.seed", 1, "first seed of TestSeededSchedule")
	scheduleSeeds = flag.Int("schedule.seeds", 20, "how many consecutive seeds TestSeededSchedule runs")
)

// regressionSeeds are seeds that once failed; they run on every invocation.
var regressionSeeds = []int64{}

// TestSeededSchedule searches fault schedules for §A.2 safety violations.
// One seed fixes the group size and the whole sequence of operations and
// faults, issued by this one goroutine; rerun a failure with
// -schedule.seed=N -schedule.seeds=1.
func TestSeededSchedule(t *testing.T) {
	seeds := append([]int64(nil), regressionSeeds...)
	for i := 0; i < *scheduleSeeds; i++ {
		seeds = append(seeds, *scheduleSeed+int64(i))
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSchedule(t, seed) })
	}
}

// schedule is one run: the group and the model its state must agree with.
type schedule struct {
	t    *testing.T
	g    *Group
	rng  *rand.Rand
	down map[int]bool
	// values and counters hold every ACKNOWLEDGED write: what the group must
	// keep through any schedule that never takes more than f replicas down.
	values   map[string]string
	counters map[string]int64
	leaders  map[uint64]*leader // every leader seen, by term
}

func runSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	f := 1 + rng.Intn(2)
	s := &schedule{
		t: t, g: NewGroup(f), rng: rng, down: map[int]bool{},
		values: map[string]string{}, counters: map[string]int64{}, leaders: map[uint64]*leader{},
	}
	defer s.g.Close()
	defer func() {
		if t.Failed() {
			t.Logf("FAILED with -schedule.seed=%d -schedule.seeds=1 (f=%d)", seed, f)
		}
	}()
	for step := 0; step < 500 && !t.Failed(); step++ {
		s.step(step)
		s.checkInvariants(step)
	}
	if t.Failed() {
		return
	}
	// Heal everything, change the leader once more, and compare every
	// replica's committed state with the model.
	for i := range s.down {
		s.g.Replica(i).Up()
	}
	if err := s.g.ChangeLeader(rng.Intn(2*f + 1)); err != nil {
		t.Fatalf("final leader change: %v", err)
	}
	for key, want := range s.values {
		wantValue(t, s.g, key, want)
	}
	for key, want := range s.counters {
		wantValue(t, s.g, key, strconv.FormatInt(want, 10))
	}
	if err := s.g.leader.Load().eng.Sync(ctx); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	for i := range s.g.replicas {
		s.checkState(fmt.Sprintf("after healing, replica %d", i), s.g.Replica(i))
	}
	t.Logf("seed %d: f=%d, %d keys, %d counters, terms seen %d, stats %+v",
		seed, f, len(s.values), len(s.counters), len(s.leaders), s.g.Stats())
}

func (s *schedule) leaderDown() bool { return s.g.Leader().down.Load() }

// step issues one random operation or fault.
func (s *schedule) step(step int) {
	n := len(s.g.replicas)
	choice := s.rng.Intn(100)
	if s.leaderDown() && choice < 70 {
		choice = 90 + s.rng.Intn(10) // a group without a leader mostly elects or heals
	}
	switch {
	case choice < 35: // put
		if s.leaderDown() {
			return
		}
		key, val := fmt.Sprintf("k%d", s.rng.Intn(6)), fmt.Sprintf("v%d", step)
		if _, err := s.g.Update(ctx, put(key, val)); err != nil {
			s.t.Fatalf("step %d: put %s: %v", step, key, err)
		}
		s.values[key] = val
	case choice < 60: // increment
		if s.leaderDown() {
			return
		}
		key, delta := fmt.Sprintf("c%d", s.rng.Intn(2)), int64(1+s.rng.Intn(9))
		if _, err := s.g.Update(ctx, incr(key, delta)); err != nil {
			s.t.Fatalf("step %d: incr %s: %v", step, key, err)
		}
		s.counters[key] += delta
	case choice < 75: // linearizable read (commits the key if it must)
		if s.leaderDown() {
			return
		}
		if key := fmt.Sprintf("k%d", s.rng.Intn(6)); s.values[key] != "" {
			wantValue(s.t, s.g, key, s.values[key])
		}
	case choice < 85: // fault, never more than f at once
		if i := s.rng.Intn(n); len(s.down) < s.g.f && !s.down[i] {
			s.g.Replica(i).Down()
			s.down[i] = true
		}
	case choice < 92: // heal
		for i := range s.down {
			s.g.Replica(i).Up()
			delete(s.down, i)
			break
		}
	default: // leadership change to a reachable replica
		i := s.rng.Intn(n)
		for s.down[i] {
			i = (i + 1) % n
		}
		if err := s.g.ChangeLeader(i); err != nil {
			s.t.Fatalf("step %d: change leader to %d with %d down: %v", step, i, len(s.down), err)
		}
	}
}

// checkState compares a replica's state machine with the model.
func (s *schedule) checkState(when string, r *Replica) {
	s.t.Helper()
	for key, want := range s.values {
		if v, _, ok := r.SM().Get([]byte(key)); !ok || string(v) != want {
			s.t.Errorf("%s: %s = %q (found %v), acknowledged %q", when, key, v, ok, want)
		}
	}
	for key, want := range s.counters {
		if v, _, _ := r.SM().Get([]byte(key)); string(v) != strconv.FormatInt(want, 10) {
			s.t.Errorf("%s: counter %s = %s, acknowledged increments sum to %d", when, key, v, want)
		}
	}
}

func (s *schedule) checkInvariants(step int) {
	s.t.Helper()
	when := fmt.Sprintf("after step %d", step)
	// Completed writes are durable and counters exactly-once: the leader's
	// state — rebuilt from the log and the witnesses at every change — holds
	// exactly the acknowledged writes.
	cur := s.g.leader.Load()
	s.checkState(when, cur.self)
	// One leader per term, and only the newest still serves.
	if prev, ok := s.leaders[cur.term]; ok && prev != cur {
		s.t.Errorf("%s: two leaders of term %d", when, cur.term)
	}
	s.leaders[cur.term] = cur
	for term, l := range s.leaders {
		if l != cur && (term >= cur.term || !l.eng.State().Frozen()) {
			s.t.Errorf("%s: the leader of term %d still serves beside term %d's", when, term, cur.term)
		}
	}
	// No witness accepts a record of a term older than its replica's.
	probe := []witness.Record{{KeyHashes: []uint64{uint64(step)}, ID: rifl.RPCID{Client: 99, Seq: rifl.Seq(step + 1)}, Request: []byte("stale")}}
	for i, r := range s.g.replicas {
		if term := termOf(r); term > 1 && !s.down[i] {
			if res := r.Witness().RecordBatch(term-1, probe); res[0].Ok() {
				s.t.Errorf("%s: replica %d at term %d accepted a record of term %d", when, i, term, term-1)
			}
		}
	}
}
