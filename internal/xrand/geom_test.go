package xrand_test

import (
	"fmt"
	"math"
	"testing"

	"plp/internal/trace"
	"plp/internal/xrand"
)

// oldSample is the sampler before the cut table, kept as the oracle:
// every draw goes through math.Log.
func oldSample(logQ float64, r *xrand.RNG) int {
	if logQ == 0 {
		return 1
	}
	u := r.Float64()
	if u == 0 {
		u = 0x1p-53
	}
	n := int(math.Log(u)/logQ) + 1
	if n < 1 {
		n = 1
	}
	const cap = 1 << 30
	if n > cap {
		n = cap
	}
	return n
}

func oldLogQ(m float64) float64 {
	if m <= 1 {
		return 0
	}
	return math.Log(1 - 1/m)
}

// gapMean is the generator's gap-sampler mean for p, computed as
// trace.NewGenerator does.
func gapMean(p trace.Profile) float64 {
	memPKI := p.StoresPKI() + p.LoadsPKI
	if memPKI <= 0 {
		memPKI = 1
	}
	meanGap := 1000/memPKI - 1
	if meanGap < 0 {
		meanGap = 0
	}
	return meanGap + 1
}

// samplerMeans returns every mean the trace generator samples at: the
// gap mean of each built-in profile, the reuse-lag mean (16, gen.go's
// lagMean), and gap means across the store and load rates
// ParseProfileSpec accepts.
func samplerMeans(t testing.TB) []float64 {
	means := []float64{16}
	for _, p := range trace.Profiles() {
		means = append(means, gapMean(p))
	}
	for _, stores := range []float64{0.5, 2, 10, 40, 100, 200, 400, 800} {
		for _, loads := range []float64{0, 50, 250, 600} {
			p, err := trace.ParseProfileSpec(fmt.Sprintf("stores=%g,loads=%g", stores, loads))
			if err != nil {
				t.Fatal(err)
			}
			if m := gapMean(p); m > 1 {
				means = append(means, m)
			}
		}
	}
	return means
}

// TestGeomTableMatchesLogPath checks the cut table against the log
// path at every sampler mean the generator uses: every draw within
// 4096 of each cut, where rounding in math.Log could matter, must
// map to the log path's sample and the log path must not increase
// there; then 10^7 uniform draws, spread over the means, must agree
// too.
func TestGeomTableMatchesLogPath(t *testing.T) {
	const window = 4096
	const top = 1<<53 - 1
	means := samplerMeans(t)
	for _, m := range means {
		g := xrand.NewGeom(m)
		for k, c := range g.Cuts() {
			lo, hi := uint64(0), uint64(top)
			if c > window {
				lo = c - window
			}
			if c+window < hi {
				hi = c + window
			}
			prev := math.MaxInt
			for d := lo; d <= hi; d++ {
				want := g.LogPath(d)
				if got := g.Draw(d); got != want {
					t.Fatalf("m=%g cut %d (%d): draw %d samples %d, log path %d", m, k, c, d, got, want)
				}
				if want > prev {
					t.Fatalf("m=%g cut %d: log path rises at draw %d (%d -> %d)", m, k, d, prev, want)
				}
				prev = want
			}
			// The cut's definition: the first draw sampling at most k+1.
			if c <= top && g.LogPath(c) > k+1 || c > 0 && g.LogPath(c-1) <= k+1 {
				t.Fatalf("m=%g: cut %d at %d is not the first draw sampling <= %d", m, k, c, k+1)
			}
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 500_000
	}
	gs := make([]xrand.Geom, len(means))
	for i, m := range means {
		gs[i] = xrand.NewGeom(m)
	}
	r := xrand.New(99)
	for i := 0; i < draws; i++ {
		g := &gs[i%len(gs)]
		d := r.Uint64() >> 11
		if got, want := g.Draw(d), g.LogPath(d); got != want {
			t.Fatalf("m=%g draw %d: sample %d, log path %d", means[i%len(gs)], d, got, want)
		}
	}
}

// TestGeomMatchesOldSampler pins that Sample returns the old log-path
// sampler's exact stream and consumes exactly its RNG draws, at every
// generator mean and at the degenerate means.
func TestGeomMatchesOldSampler(t *testing.T) {
	means := append(samplerMeans(t), 0.5, 1, 1.000001, 1e9)
	for _, m := range means {
		g := xrand.NewGeom(m)
		r1, r2 := xrand.New(5), xrand.New(5)
		for i := 0; i < 20_000; i++ {
			if got, want := g.Sample(r1), oldSample(oldLogQ(m), r2); got != want {
				t.Fatalf("m=%g sample %d: %d, old sampler %d", m, i, got, want)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("m=%g: RNG streams diverged", m)
		}
	}
}

// FuzzGeomSample checks the table against the log path at arbitrary
// (mean, draw) pairs.
func FuzzGeomSample(f *testing.F) {
	for _, m := range []float64{16, 1.5, 2.06, 3, 1.000001, 1e6} {
		f.Add(m, uint64(1)<<52)
	}
	f.Fuzz(func(t *testing.T, m float64, d uint64) {
		if m <= 1 || math.IsNaN(m) || math.IsInf(m, 0) {
			return
		}
		d &= 1<<53 - 1
		g := xrand.NewGeom(m)
		if got, want := g.Draw(d), g.LogPath(d); got != want {
			t.Fatalf("m=%g draw %d: sample %d, log path %d", m, d, got, want)
		}
	})
}

func BenchmarkGeomSample(b *testing.B) {
	g := xrand.NewGeom(3)
	r := xrand.New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		n += g.Sample(r)
	}
	_ = n
}

func BenchmarkGeomLogPath(b *testing.B) {
	g := xrand.NewGeom(3)
	r := xrand.New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		n += g.LogPath(r.Uint64() >> 11)
	}
	_ = n
}

func BenchmarkNewGeom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = xrand.NewGeom(2.5)
	}
}
