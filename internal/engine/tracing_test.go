package engine

import (
	"testing"

	"plp/internal/sim"
	"plp/internal/trace"
)

// countingSink tallies delivered events by kind without allocating in
// the emit path.
type countingSink struct {
	persists, epochs, other uint64
}

func (c *countingSink) fn(ev sim.TraceEvent) {
	switch ev.Kind {
	case "persist":
		c.persists++
	case "epoch":
		c.epochs++
	default:
		c.other++
	}
}

func (c *countingSink) total() uint64 { return c.persists + c.epochs + c.other }

// tracerOpts attaches tr, keeping a nil tracer out of the Observer
// interface.
func tracerOpts(tr *Tracer) RunOptions {
	if tr == nil {
		return RunOptions{}
	}
	return RunOptions{Observer: tr}
}

func runTraced(t *testing.T, scheme Scheme, tc TraceConfig) (Result, TraceStats, *countingSink) {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	sink := &countingSink{}
	if tc.Mode != TraceOff {
		tc.Sink = sink.fn
	}
	tr := NewTracer(tc)
	res := Run(Config{Scheme: scheme, Instructions: 150_000}, p, tracerOpts(tr))
	var st TraceStats
	if tr != nil {
		st = tr.Stats()
	}
	return res, st, sink
}

// TestTracingModeSwitching runs the same workload under each mode on
// fresh runs — the OFF -> HYBRID -> FULL lifetime of a service that
// re-tunes its tracing between jobs — and checks each mode's event
// subset and that cycles never move.
func TestTracingModeSwitching(t *testing.T) {
	scheme := SchemeCoalescing // emits both persist and epoch events

	off, offStats, offSink := runTraced(t, scheme, TraceConfig{Mode: TraceOff})
	system, sysStats, sysSink := runTraced(t, scheme, TraceConfig{Mode: TraceSystemOnly})
	hybrid, hybStats, hybSink := runTraced(t, scheme, TraceConfig{Mode: TraceHybrid, SamplePercent: 10})
	full, _, fullSink := runTraced(t, scheme, TraceConfig{Mode: TraceFull})

	if offSink.total() != 0 || offStats != (TraceStats{}) {
		t.Fatalf("OFF emitted %d events, stats %+v", offSink.total(), offStats)
	}
	if sysSink.persists != 0 || sysSink.epochs == 0 {
		t.Fatalf("SYSTEM-ONLY: %d persist, %d epoch events", sysSink.persists, sysSink.epochs)
	}
	if fullSink.persists != full.Persists || fullSink.epochs != full.Epochs {
		t.Fatalf("FULL: sink saw %d/%d, run did %d/%d persists/epochs",
			fullSink.persists, fullSink.epochs, full.Persists, full.Epochs)
	}
	// HYBRID admits exactly 10% of persists (deterministic accumulator)
	// and every epoch event.
	if want := full.Persists / 10; hybSink.persists != want {
		t.Fatalf("HYBRID-10%%: %d persist events, want %d of %d", hybSink.persists, want, full.Persists)
	}
	if hybSink.epochs != fullSink.epochs {
		t.Fatalf("HYBRID dropped epoch events: %d vs %d", hybSink.epochs, fullSink.epochs)
	}
	if hybStats.Dropped == 0 || hybStats.Emitted != hybSink.total() {
		t.Fatalf("HYBRID stats inconsistent: %+v vs sink %d", hybStats, hybSink.total())
	}
	if sysStats.FinalSamplePercent != 0 || hybStats.FinalSamplePercent != 10 {
		t.Fatalf("FinalSamplePercent: system %d, hybrid %d",
			sysStats.FinalSamplePercent, hybStats.FinalSamplePercent)
	}

	for name, r := range map[string]Result{"system": system, "hybrid": hybrid, "full": full} {
		if r.Cycles != off.Cycles {
			t.Errorf("%s mode moved cycles: %d vs %d", name, r.Cycles, off.Cycles)
		}
	}
}

// TestAdaptiveShedUnderLoad scripts the tracer's clock so every sink
// call appears to consume far more wall time than the budget allows:
// the HYBRID rate must halve step by step to 0 — SYSTEM-ONLY behavior
// — while epoch events keep flowing and cycles stay untouched.
func TestAdaptiveShedUnderLoad(t *testing.T) {
	var now int64
	clock := func() int64 { now += 1_000_000; return now } // 1ms per reading

	base, _, _ := runTraced(t, SchemeCoalescing, TraceConfig{Mode: TraceOff})
	sink := &countingSink{}
	p, _ := trace.ProfileByName("gcc")
	tr := NewTracer(TraceConfig{
		Mode:           TraceHybrid,
		SamplePercent:  100, // start at FULL-density persists
		OverheadBudget: 0.05,
		CheckEvery:     16,
		Sink:           sink.fn,
		Clock:          clock,
	})
	res := Run(Config{Scheme: SchemeCoalescing, Instructions: 150_000}, p, RunOptions{Observer: tr})
	st := tr.Stats()

	if st.Sheds == 0 {
		t.Fatalf("over-budget tracer never shed: %+v", st)
	}
	if st.FinalSamplePercent != 0 {
		t.Fatalf("rate should shed to 0 (SYSTEM-ONLY), ended at %d%% after %d sheds",
			st.FinalSamplePercent, st.Sheds)
	}
	// 100 -> 50 -> 25 -> 12 -> 6 -> 3 -> 1 -> 0: seven halvings.
	if st.Sheds != 7 {
		t.Errorf("sheds = %d, want 7 (halving from 100%% to 0)", st.Sheds)
	}
	if sink.persists >= res.Persists {
		t.Errorf("shedding never reduced persist events: %d of %d", sink.persists, res.Persists)
	}
	if sink.epochs != res.Epochs {
		t.Errorf("system-level epoch events must survive shedding: %d of %d", sink.epochs, res.Epochs)
	}
	if res.Cycles != base.Cycles {
		t.Errorf("adaptive shedding moved cycles: %d vs %d", res.Cycles, base.Cycles)
	}
}

// TestTraceConfigValidate covers the tracing validation surface.
func TestTraceConfigValidate(t *testing.T) {
	bad := []TraceConfig{
		{Mode: "verbose"},
		{Mode: TraceHybrid, SamplePercent: 101},
		{Mode: TraceHybrid, SamplePercent: -1},
		{Mode: TraceHybrid, OverheadBudget: 1.5},
		{Mode: TraceHybrid, CheckEvery: -2},
	}
	for i, tc := range bad {
		if err := tc.Validate(); err == nil {
			t.Errorf("config %d validated clean", i)
		}
	}
	ok := TraceConfig{Mode: TraceHybrid, SamplePercent: 50, OverheadBudget: 0.1, Sink: func(sim.TraceEvent) {}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tracing config rejected: %v", err)
	}
}

// TestTracingOffZeroAlloc extends the delta-method steady-state test
// to the tracing layer: a TraceConfig whose mode is OFF (even with a
// sink wired) builds no tracer, so the run allocates exactly what an
// untraced run allocates.
func TestTracingOffZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	p, _ := trace.ProfileByName("gcc")
	sink := &countingSink{}
	const short, long = 300_000, 1_500_000
	const tolerance = 200
	ar := NewArena()
	tr := NewTracer(TraceConfig{Mode: TraceOff, Sink: sink.fn})
	if tr != nil {
		t.Fatal("OFF mode built a tracer")
	}
	opts := tracerOpts(tr)
	Run(Config{Scheme: SchemeCoalescing, Instructions: 50_000, Arena: ar}, p, opts)
	base := allocsForRun(Config{Scheme: SchemeCoalescing, Instructions: short, Arena: ar}, p, opts)
	grown := allocsForRun(Config{Scheme: SchemeCoalescing, Instructions: long, Arena: ar}, p, opts)
	if grown > base+tolerance {
		t.Errorf("OFF tracing leaks allocations: %d instructions allocated %d, %d allocated %d",
			short, base, long, grown)
	}
	if sink.total() != 0 {
		t.Errorf("OFF mode delivered %d events", sink.total())
	}
}

// benchMachine builds a minimal machine for per-event benchmarks (a
// shallow tree keeps setup small; only the persist site is measured).
func benchMachine(b *testing.B, tc TraceConfig) *machine {
	b.Helper()
	cfg := Config{Scheme: SchemeCoalescing, BMTLevels: 3}
	cfg.fill()
	return newMachine(cfg, tracerOpts(NewTracer(tc)))
}

// BenchmarkTracingOff is the overhead budget for OFF: the per-event
// cost of the disabled path must be a nil check — 0 allocs/op (the CI
// tracing-overhead step asserts this).
func BenchmarkTracingOff(b *testing.B) {
	m := benchMachine(b, TraceConfig{})
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.persisted(&res, sim.Cycle(i), 7, sim.Cycle(i), sim.Cycle(i)+1, sim.Cycle(i)+1)
	}
}

// BenchmarkTracingModes measures the per-event cost of each enabled
// mode through the real filter: the overhead budget table in
// docs/MODEL.md §11 comes from these numbers.
func BenchmarkTracingModes(b *testing.B) {
	sink := &countingSink{}
	for _, tc := range []struct {
		name string
		cfg  TraceConfig
	}{
		{"system", TraceConfig{Mode: TraceSystemOnly, Sink: sink.fn}},
		{"hybrid10", TraceConfig{Mode: TraceHybrid, SamplePercent: 10, Sink: sink.fn}},
		{"hybrid10_adaptive", TraceConfig{Mode: TraceHybrid, SamplePercent: 10, OverheadBudget: 0.05, Sink: sink.fn}},
		{"full", TraceConfig{Mode: TraceFull, Sink: sink.fn}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			m := benchMachine(b, tc.cfg)
			var res Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.persisted(&res, sim.Cycle(i), 7, sim.Cycle(i), sim.Cycle(i)+1, sim.Cycle(i)+1)
			}
		})
	}
}
