// Package xrand provides a small, fast, deterministic pseudo-random
// number generator used to synthesize workload traces and block
// contents. Determinism matters: every experiment in this repository
// must be exactly reproducible from a seed, so we avoid math/rand's
// global state and version-dependent algorithms.
//
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference construction by Blackman and Vigna.
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed using splitmix64,
// which guarantees a well-mixed nonzero internal state for any seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean
// m (the number of trials up to and including the first success),
// via the O(1) inverse-transform method — constant time even for very
// large means, unlike trial-by-trial rejection. m must be >= 1.
//
// Samplers drawing many values at one fixed mean should use NewGeom,
// which hoists the constant log(1-p) out of the per-sample path and
// serves most draws from a table, while producing the bit-identical
// sample stream.
func (r *RNG) Geometric(m float64) int {
	g := Geom{logQ: logQ(m)}
	if g.logQ == 0 {
		return 1
	}
	return g.logPath(r.Uint64() >> 11)
}

// geomCuts is the number of small samples Geom serves from its table;
// at the trace generator's gap means (2-3) they cover 96% or more of
// the draws.
const geomCuts = 8

// Geom is a geometric sampler for a fixed mean. The zero value is a
// degenerate sampler that always returns 1.
//
// Sample maps one 53-bit draw d to the inverse-transform sample
// f(d) = int(log(u)/log(1-p)) + 1, with u = d/2^53 — the log path.
// f is non-increasing in d: the conversion to u is exact, and IEEE
// division and truncation are monotone, so only math.Log could break
// the order, and it is within 1 ulp. Such an error can move f only
// where log(u)/log(1-p) lies within a few ulps of an integer, that is
// at draws next to a point where f steps down; the table's steps are
// its cuts, and TestGeomTableMatchesLogPath checks every draw within
// 4096 of each cut against the log path. NewGeom finds the
// cuts by bisection on the log path itself, so below each cut f is
// greater and from it on f is at most the table's value: for every
// draw at or beyond the last cut, f(d) is one plus the number of cuts
// above d, counted without a branch or a logarithm. Smaller draws,
// the geometric tail (under 4% of draws at mean 3), take the log path
// itself. The sample stream and the RNG draws consumed are therefore
// exactly the log path's.
type Geom struct {
	logQ float64 // math.Log(1 - 1/m); 0 marks the m <= 1 degenerate case
	// cut[k] is the smallest draw whose log-path sample is at most
	// k+1 (2^53 if none is).
	cut [geomCuts]uint64
}

// logQ returns math.Log(1 - 1/m), or 0 for the degenerate m <= 1.
func logQ(m float64) float64 {
	if m <= 1 {
		return 0
	}
	return math.Log(1 - 1/m)
}

// NewGeom builds a sampler for mean m (trials up to and including the
// first success). Sample(r) returns exactly what r.Geometric(m) would.
func NewGeom(m float64) Geom {
	g := Geom{logQ: logQ(m)}
	if g.logQ == 0 {
		return g
	}
	hi := uint64(1 << 53)
	for k := range g.cut {
		// f is non-increasing, so the cuts are too: search below the
		// previous one for the first draw with f(d) <= k+1.
		lo := uint64(0)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if g.logPath(mid) <= k+1 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		g.cut[k] = lo
	}
	return g
}

// Sample draws one geometric sample from r.
func (g *Geom) Sample(r *RNG) int {
	if g.logQ == 0 {
		return 1
	}
	return g.sample(r.Uint64() >> 11)
}

// sample maps one 53-bit draw to its sample (see Geom).
func (g *Geom) sample(d uint64) int {
	if d < g.cut[geomCuts-1] {
		return g.logPath(d)
	}
	// d and every cut are below 2^54, so d-c wraps to a value with its
	// top bit set exactly when d < c. One term per cut (geomCuts = 8).
	c := &g.cut
	return int(1 + (d-c[0])>>63 + (d-c[1])>>63 + (d-c[2])>>63 + (d-c[3])>>63 +
		(d-c[4])>>63 + (d-c[5])>>63 + (d-c[6])>>63 + (d-c[7])>>63)
}

// logPath is the inverse-transform sample of the 53-bit draw d.
func (g *Geom) logPath(d uint64) int {
	u := float64(d) / (1 << 53)
	if u == 0 {
		u = 0x1p-53
	}
	n := int(math.Log(u)/g.logQ) + 1
	if n < 1 {
		n = 1
	}
	const cap = 1 << 30 // bound pathological tails
	if n > cap {
		n = cap
	}
	return n
}

// Fill fills b with random bytes.
func (r *RNG) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
