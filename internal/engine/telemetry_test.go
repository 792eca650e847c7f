package engine

import (
	"math"
	"testing"

	"plp/internal/telemetry"
	"plp/internal/trace"
)

// Per-window telemetry counters must sum exactly to the run totals on
// engine.Result for every scheme — the same conservation invariant the
// cycle attribution keeps for Cycles.
func TestTelemetryConservation(t *testing.T) {
	prof, _ := trace.ProfileByName("gamess")
	schemes := AllSchemes()
	for _, s := range schemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			sampler := telemetry.NewSampler(4096, 0, ComponentLabels())
			cfg := Config{Scheme: s, Instructions: 200_000}
			res := Run(cfg, prof, RunOptions{Observer: Sampling(sampler)})
			ser := sampler.Snapshot()
			if len(ser.Windows) == 0 {
				t.Fatal("no telemetry windows recorded")
			}
			if got := ser.Total(func(w telemetry.Window) uint64 { return w.Persists }); got != res.Persists {
				t.Errorf("window persists sum = %d, Result.Persists = %d", got, res.Persists)
			}
			if got := ser.Total(func(w telemetry.Window) uint64 { return w.Epochs }); got != res.Epochs {
				t.Errorf("window epochs sum = %d, Result.Epochs = %d", got, res.Epochs)
			}
			if got := ser.Total(func(w telemetry.Window) uint64 { return w.NVMWrites }); got != res.NVMWrites {
				t.Errorf("window NVM writes sum = %d, Result.NVMWrites = %d", got, res.NVMWrites)
			}
			if got := ser.Total(func(w telemetry.Window) uint64 { return w.NVMReads }); got != res.NVMReads {
				t.Errorf("window NVM reads sum = %d, Result.NVMReads = %d", got, res.NVMReads)
			}
			// The stall mix telescopes to the float attribution total,
			// which matches Cycles to within the reported drift.
			var stalls float64
			for _, w := range ser.Windows {
				for _, v := range w.Stalls {
					stalls += v
				}
			}
			if diff := math.Abs(stalls - float64(res.Cycles)); diff > res.AttribDrift+1e-6 {
				t.Errorf("window stall sum = %.3f, Cycles = %d (diff %.3f > drift %.3f)",
					stalls, res.Cycles, diff, res.AttribDrift)
			}
			// The series covers the whole run.
			last := ser.Windows[len(ser.Windows)-1]
			if end := last.Start + ser.Interval; end < res.Cycles {
				t.Errorf("series ends at cycle %d, run has %d cycles", end, res.Cycles)
			}
		})
	}
}

// Occupancy samples must respect the structures' configured capacity.
func TestTelemetryOccupancyBounds(t *testing.T) {
	prof, _ := trace.ProfileByName("gcc")
	for _, s := range []Scheme{SchemeSP, SchemePipeline, SchemeO3, SchemeCoalescing} {
		sampler := telemetry.NewSampler(4096, 0, nil)
		cfg := Config{Scheme: s, Instructions: 100_000,
			WPQEntries: 32, PTTEntries: 64, ETTSlots: 2}
		Run(cfg, prof, RunOptions{Observer: Sampling(sampler)})
		for i, w := range sampler.Snapshot().Windows {
			if w.WPQMax > 32 {
				t.Errorf("%s window %d: WPQMax %d > capacity 32", s, i, w.WPQMax)
			}
			if w.PTTMax > 64 {
				t.Errorf("%s window %d: PTTMax %d > capacity 64", s, i, w.PTTMax)
			}
			if w.ETTMax > 2 {
				t.Errorf("%s window %d: ETTMax %d > capacity 2", s, i, w.ETTMax)
			}
		}
	}
}

// A minimal run (one instruction, likely zero persists) still closes
// the series with the final probe and conserves totals.
func TestTelemetryMinimalRun(t *testing.T) {
	prof, _ := trace.ProfileByName("gamess")
	for _, s := range Schemes() {
		sampler := telemetry.NewSampler(0, 0, ComponentLabels())
		res := Run(Config{Scheme: s, Instructions: 1}, prof, RunOptions{Observer: Sampling(sampler)})
		ser := sampler.Snapshot()
		if len(ser.Windows) == 0 {
			t.Fatalf("%s: minimal run recorded no windows (final probe missing)", s)
		}
		if got := ser.Total(func(w telemetry.Window) uint64 { return w.Persists }); got != res.Persists {
			t.Errorf("%s: window persists sum = %d, want %d", s, got, res.Persists)
		}
	}
}

// The disabled path (no observer) must cost zero allocations: a
// persist site bails on the nil check before building a probe.
func TestTelemetryNilHookZeroAllocs(t *testing.T) {
	cfg := Config{Scheme: SchemeO3}
	cfg.fill()
	m := newMachine(cfg, RunOptions{})
	var res Result
	res.Persists = 42
	if allocs := testing.AllocsPerRun(1000, func() {
		m.persisted(&res, 12345, 7, 100, 200, 200)
	}); allocs != 0 {
		t.Errorf("observer-free persist site allocates %.1f per call, want 0", allocs)
	}
}

// Identical configs must produce identical telemetry series — the
// sampler adds no nondeterminism to the deterministic simulator.
func TestTelemetryDeterministic(t *testing.T) {
	prof, _ := trace.ProfileByName("milc")
	run := func() telemetry.Series {
		sampler := telemetry.NewSampler(8192, 0, ComponentLabels())
		Run(Config{Scheme: SchemeCoalescing, Instructions: 100_000}, prof, RunOptions{Observer: Sampling(sampler)})
		return sampler.Snapshot()
	}
	a, b := run(), run()
	if len(a.Windows) != len(b.Windows) || a.Interval != b.Interval {
		t.Fatalf("series shape differs: %d/%d windows, %d/%d interval",
			len(a.Windows), len(b.Windows), a.Interval, b.Interval)
	}
	for i := range a.Windows {
		wa, wb := a.Windows[i], b.Windows[i]
		if wa.Persists != wb.Persists || wa.NVMWrites != wb.NVMWrites ||
			wa.WPQMax != wb.WPQMax || wa.Samples != wb.Samples {
			t.Fatalf("window %d differs: %+v vs %+v", i, wa, wb)
		}
	}
}
