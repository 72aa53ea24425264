package workload

import (
	"math"
	"sort"
	"testing"
)

func TestUniformBounds(t *testing.T) {
	u := NewUniform(100, 1)
	if u.N() != 100 {
		t.Fatalf("N = %d", u.N())
	}
	for i := 0; i < 10000; i++ {
		if k := u.Next(); k >= 100 {
			t.Fatalf("uniform out of range: %d", k)
		}
	}
}

func TestUniformCoversSpace(t *testing.T) {
	u := NewUniform(10, 2)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[u.Next()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform should cover all 10 keys, saw %d", len(seen))
	}
}

func TestUniformDeterministic(t *testing.T) {
	a, b := NewUniform(1000, 42), NewUniform(1000, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

func TestZipfianBounds(t *testing.T) {
	z := NewZipfian(1000, 0.99, 1)
	if z.N() != 1000 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 0; i < 100000; i++ {
		if k := z.Next(); k >= 1000 {
			t.Fatalf("zipfian out of range: %d", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// With theta=0.99 over 1000 keys, rank 0 should receive far more hits
	// than the uniform share; the hottest key's frequency ≈ 1/zeta(n).
	z := NewZipfian(1000, 0.99, 3)
	const draws = 200000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	p0 := float64(counts[0]) / draws
	expected := 1.0 / zeta(1000, 0.99) // ≈ 0.125
	if math.Abs(p0-expected)/expected > 0.10 {
		t.Fatalf("hottest key frequency %f, want ≈%f", p0, expected)
	}
	// Popularity must be (statistically) decreasing in rank: compare the
	// first decile to the last decile.
	head, tail := 0, 0
	for i := 0; i < 100; i++ {
		head += counts[i]
		tail += counts[900+i]
	}
	if head < tail*10 {
		t.Fatalf("zipfian not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfianPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipfian(0, 0.99, 1) },
		func() { NewZipfian(10, 0, 1) },
		func() { NewZipfian(10, 1, 1) },
		func() { NewUniform(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	s := NewScrambledZipfian(1_000_000, 0.99, 5)
	if s.N() != 1_000_000 {
		t.Fatalf("N = %d", s.N())
	}
	counts := map[uint64]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := s.Next()
		if k >= 1_000_000 {
			t.Fatalf("scrambled zipfian out of range: %d", k)
		}
		counts[k]++
	}
	// Find the two hottest keys: they should not be adjacent indexes
	// (scrambling spreads them) and the hottest should still be hot.
	type kc struct {
		k uint64
		c int
	}
	var all []kc
	for k, c := range counts {
		all = append(all, kc{k, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c > all[j].c })
	if all[0].c < draws/20 {
		t.Fatalf("hottest key only %d/%d draws; distribution not skewed", all[0].c, draws)
	}
	d := int64(all[0].k) - int64(all[1].k)
	if d < 0 {
		d = -d
	}
	if d <= 1 {
		t.Fatalf("two hottest keys adjacent (%d, %d); scrambling broken", all[0].k, all[1].k)
	}
}

func TestKeyFormatting(t *testing.T) {
	k := Key(42, 30)
	if len(k) != 30 {
		t.Fatalf("key length %d, want 30", len(k))
	}
	if string(k[:3]) != "key" {
		t.Fatalf("key prefix %q", k[:3])
	}
	if string(Key(42, 30)) != string(k) {
		t.Fatal("Key must be deterministic")
	}
	if string(Key(1, 10)) == string(Key(2, 10)) {
		t.Fatal("distinct indexes must give distinct keys")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for too-narrow width")
		}
	}()
	Key(123456, 5)
}

func TestValue(t *testing.T) {
	v := Value(7, 100)
	if len(v) != 100 {
		t.Fatalf("value length %d", len(v))
	}
	if string(v) != string(Value(7, 100)) {
		t.Fatal("Value must be deterministic")
	}
	for _, c := range v {
		if c < 'A' || c > 'Z' {
			t.Fatalf("value byte %q not printable uppercase", c)
		}
	}
}

func TestZeta(t *testing.T) {
	// zeta(3, 1-eps) ≈ 1 + 1/2 + 1/3 at theta→1; check exact at theta=0.5:
	want := 1 + 1/math.Sqrt(2) + 1/math.Sqrt(3)
	if got := zeta(3, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zeta(3,0.5) = %f, want %f", got, want)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(1_000_000, 0.99, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkScrambledZipfianNext(b *testing.B) {
	z := NewScrambledZipfian(1_000_000, 0.99, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
