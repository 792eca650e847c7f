package engine

import (
	"runtime"
	"testing"

	"plp/internal/trace"
)

// allocsForRun measures total heap allocations of one simulation.
func allocsForRun(cfg Config, p trace.Profile, opts ...RunOptions) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(cfg, p, opts...)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestZeroAllocSteadyState asserts the tentpole property of the
// hot-path rework: once a run is set up, simulating more stores
// allocates nothing. Direct testing.AllocsPerRun can't express this
// (setup inevitably allocates), so it uses the delta method: a run 5x
// longer must allocate no more than the short one — every allocation
// is attributable to setup, none to the per-store steady state.
//
// A small tolerance absorbs runtime-internal background allocations
// (GC mark assists, timer wakeups) that MemStats cannot exclude; the
// pre-rework engine allocated hundreds of thousands of objects per
// extra million instructions, so the signal is unambiguous.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	p, _ := trace.ProfileByName("gcc")
	const short, long = 300_000, 1_500_000
	const tolerance = 200 // runtime noise, not per-store work
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			ar := NewArena()
			// Prime the arena so both measured runs reuse its buffers.
			Run(Config{Scheme: s, Instructions: 50_000, Arena: ar}, p)
			base := allocsForRun(Config{Scheme: s, Instructions: short, Arena: ar}, p)
			grown := allocsForRun(Config{Scheme: s, Instructions: long, Arena: ar}, p)
			if grown > base+tolerance {
				t.Errorf("%s: %d instructions allocated %d objects, %d allocated %d — "+
					"steady state leaks %d allocs",
					s, short, base, long, grown, grown-base)
			}
		})
	}
}

// TestDeepTreeRunMemory pins that a run's memory follows the lines it
// touches, not the modelled address space, whose BMT region grows 8x
// per level: one fresh-arena run of each scheme at BMTLevels=12, the
// deepest tree TestPipeliningImprovesWithTreeDepth sweeps, must
// allocate under 256 MB in total.
func TestDeepTreeRunMemory(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	const limit = 256 << 20
	for _, s := range AllSchemes() {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(Config{Scheme: s, BMTLevels: 12, Instructions: 200_000}, p)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.1f MB allocated", s, float64(got)/(1<<20))
		if got > limit {
			t.Errorf("%s: a BMTLevels=12 run allocated %d MB, want under %d MB",
				s, got>>20, limit>>20)
		}
	}
}

// TestWarmPooledRunAllocation bounds what a run allocates once its
// arena is warm: the caches, tables and batch buffer are all reused,
// so a 200k-instruction run of any scheme allocates under 256 KB
// (a fresh run builds ~1.3 MB of tag stores).
func TestWarmPooledRunAllocation(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	const limit = 256 << 10
	for _, s := range AllSchemes() {
		ar := NewArena()
		cfg := Config{Scheme: s, Instructions: 200_000, Arena: ar}
		Run(cfg, p)
		if got := bytesForRun(cfg, p); got > limit {
			t.Errorf("%s: a warm pooled run allocated %d KB, want under %d KB", s, got>>10, limit>>10)
		}
	}
}

// bytesForRun measures the bytes one simulation allocates.
func bytesForRun(cfg Config, p trace.Profile) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(cfg, p)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestValidateAllocatesNoTagStore pins that Validate checks the cache
// geometries without building the caches: at the defaults, and for a
// 16 GB LLC whose tag store would be gigabytes, it allocates under
// 64 KB.
func TestValidateAllocatesNoTagStore(t *testing.T) {
	for _, cfg := range []Config{{}, {LLCKB: 16 << 20}} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := cfg.Validate()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("LLCKB=%d: Validate allocated %d KB, want under 64 KB", cfg.LLCKB, got>>10)
		}
	}
}

// BenchmarkEngineStoreLoop measures the per-scheme hot loop: one full
// simulation per iteration on a pooled arena, so steady-state cost
// (not setup) dominates. b.ReportAllocs surfaces the alloc count the
// test above guards.
func BenchmarkEngineStoreLoop(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	for _, s := range Schemes() {
		s := s
		b.Run(string(s), func(b *testing.B) {
			ar := NewArena()
			cfg := Config{Scheme: s, Instructions: 500_000, Arena: ar}
			Run(cfg, p) // warm the arena outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(cfg, p)
			}
			b.SetBytes(0)
			b.ReportMetric(float64(cfg.Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e6,
				"Minstr/s")
		})
	}
}
