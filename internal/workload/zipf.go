// Package workload provides the key generators used to drive the CURP
// evaluation: uniform and Zipfian key choosers (including the YCSB
// scrambled variant used for the paper's YCSB-A/B experiments) and
// fixed-width key and value formatting. Callers (bench/, internal/sim)
// build their own read/write mixes on top.
//
// All generators are deterministic given a seed, so every experiment in the
// benchmark harness is exactly reproducible.
package workload

import (
	"math"
	"math/rand"
)

// Uniform chooses keys uniformly at random from [0, n).
type Uniform struct {
	n   uint64
	rng *rand.Rand
}

// NewUniform returns a uniform chooser over [0, n) seeded with seed.
func NewUniform(n uint64, seed int64) *Uniform {
	if n == 0 {
		panic("workload: uniform key space must be non-empty")
	}
	return &Uniform{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next uniformly chosen key index.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// N returns the key space size.
func (u *Uniform) N() uint64 { return u.n }

// Zipfian generates key indexes following a Zipfian distribution with
// parameter theta, using the Gray et al. "Quickly generating billion-record
// synthetic databases" algorithm — the same generator YCSB uses. Rank 0 is
// the most popular item.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
}

// DefaultZipfTheta is the skew used by the YCSB core workloads and by the
// paper's §5.3 hot-key experiments.
const DefaultZipfTheta = 0.99

// NewZipfian returns a Zipfian chooser over [0, n) with skew theta in (0,1).
func NewZipfian(n uint64, theta float64, seed int64) *Zipfian {
	if n == 0 {
		panic("workload: zipfian key space must be non-empty")
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: zipfian theta must be in (0,1)")
	}
	z := &Zipfian{n: n, theta: theta, rng: rand.New(rand.NewSource(seed))}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed key index (0 = hottest).
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// N returns the key space size.
func (z *Zipfian) N() uint64 { return z.n }

// ScrambledZipfian spreads a Zipfian rank distribution across the whole key
// space with a hash, so popular keys are not clustered at low indexes. This
// is YCSB's ScrambledZipfianGenerator, the actual distribution behind the
// YCSB-A/B workloads in the paper's Figure 7.
type ScrambledZipfian struct {
	z *Zipfian
}

// NewScrambledZipfian returns a scrambled Zipfian chooser over [0, n).
func NewScrambledZipfian(n uint64, theta float64, seed int64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, theta, seed)}
}

// Next returns the next key index.
func (s *ScrambledZipfian) Next() uint64 {
	return fnvHash64(s.z.Next()) % s.z.n
}

// N returns the key space size.
func (s *ScrambledZipfian) N() uint64 { return s.z.n }

// fnvHash64 is the FNV-1a style mix YCSB uses to scramble ranks.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		octet := v & 0xff
		v >>= 8
		h ^= octet
		h *= prime
	}
	return h
}
