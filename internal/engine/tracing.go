package engine

import (
	"fmt"
	"time"

	"plp/internal/sim"
)

// TraceMode selects how much of the structured event stream a run
// delivers to its trace sink. Tracing is observational in every mode:
// simulated cycles are bit-identical whether tracing is off, full, or
// anything between (equivalence-pinned across all schemes). The modes
// trade simulator wall-clock overhead for event resolution:
//
//	OFF          no sink call ever; the exact nil-hook hot path,
//	             zero allocations and zero extra work (pinned by the
//	             delta-method alloc test and BenchmarkTracingOff).
//	SYSTEM-ONLY  system-level events only (epoch flushes and any
//	             future coarse kinds); per-persist events dropped.
//	             Cost is one sink call per epoch, thousands of times
//	             rarer than persists.
//	HYBRID       SYSTEM-ONLY plus a deterministic SamplePercent% of
//	             persist events, with optional adaptive shedding (see
//	             TraceConfig.OverheadBudget).
//	FULL         every event.
type TraceMode string

// The tracing modes. The zero value is TraceOff, so an unconfigured
// TraceConfig traces nothing.
const (
	TraceOff        TraceMode = ""
	TraceSystemOnly TraceMode = "system"
	TraceHybrid     TraceMode = "hybrid"
	TraceFull       TraceMode = "full"
)

// DefaultSamplePercent is HYBRID's persist-event sampling rate when
// TraceConfig.SamplePercent is 0.
const DefaultSamplePercent = 10

// DefaultOverheadCheckEvery is how many delivered events pass between
// adaptive-overhead evaluations when TraceConfig.CheckEvery is 0.
const DefaultOverheadCheckEvery = 256

// TraceConfig configures a Tracer: a sink plus a mode that decides
// which events reach it.
type TraceConfig struct {
	// Mode selects the event subset ("" = off).
	Mode TraceMode
	// Sink receives the selected events. A nil sink disables tracing
	// regardless of mode.
	Sink sim.TraceFn
	// SamplePercent is HYBRID's persist-event sampling rate in percent
	// (1..100; 0 = DefaultSamplePercent). Sampling is deterministic —
	// an accumulator admits exactly SamplePercent of every 100
	// consecutive persist events — so repeated runs emit identical
	// event streams (when adaptive shedding is disabled).
	SamplePercent int
	// OverheadBudget, when > 0, enables adaptive shedding in HYBRID
	// mode: the tracer measures the wall-clock fraction spent inside
	// the sink and, every CheckEvery delivered events, halves the
	// effective sampling rate while the fraction exceeds the budget
	// (e.g. 0.05 = 5% of wall time). The rate only sheds — down toward
	// SYSTEM-ONLY (rate 0) — and never recovers mid-run, so a load
	// burst cannot oscillate the stream. Shedding depends on real time
	// and therefore makes the emitted subset machine-dependent; the
	// simulated cycles remain bit-identical regardless.
	OverheadBudget float64
	// CheckEvery overrides the adaptive evaluation period (0 =
	// DefaultOverheadCheckEvery).
	CheckEvery int
	// Clock overrides the adaptive controller's monotonic clock
	// (nanoseconds); tests script it to force shedding
	// deterministically. Nil uses the real clock.
	Clock func() int64
}

// Validate reports why the tracing configuration cannot run.
func (tc TraceConfig) Validate() error {
	switch tc.Mode {
	case TraceOff, TraceSystemOnly, TraceHybrid, TraceFull:
	default:
		return fmt.Errorf("engine: unknown trace mode %q (known: %q, %q, %q, %q)",
			tc.Mode, TraceOff, TraceSystemOnly, TraceHybrid, TraceFull)
	}
	if tc.SamplePercent < 0 || tc.SamplePercent > 100 {
		return fmt.Errorf("engine: trace SamplePercent must be in [0,100], got %d", tc.SamplePercent)
	}
	if tc.OverheadBudget < 0 || tc.OverheadBudget >= 1 {
		return fmt.Errorf("engine: trace OverheadBudget must be in [0,1), got %g", tc.OverheadBudget)
	}
	if tc.CheckEvery < 0 {
		return fmt.Errorf("engine: trace CheckEvery must be >= 0, got %d", tc.CheckEvery)
	}
	return nil
}

// TraceStats reports what the tracer did during one run (zero when
// tracing was off).
type TraceStats struct {
	// Emitted counts events delivered to the sink; Dropped counts
	// events suppressed by the mode or by sampling.
	Emitted, Dropped uint64
	// Sheds counts adaptive rate halvings; FinalSamplePercent is the
	// effective HYBRID persist rate at run end (SamplePercent when no
	// shedding occurred; 0 means the run degraded to SYSTEM-ONLY).
	Sheds              int
	FinalSamplePercent int
}

// Tracer is the mode-aware tracing Observer: it turns the run's
// persist and epoch-flush events into sim.TraceEvents — "persist" (At
// = acknowledgement, Arg = data block, Arg2 = latency from WPQ
// admission) and "epoch" (At = completion, Arg = distinct blocks, Arg2
// = latency from the drain) — and delivers the subset its mode
// selects to the sink. FULL delivers the raw event stream. A Tracer
// serves one run at a time.
type Tracer struct {
	nopObserver

	mode TraceMode
	sink sim.TraceFn

	// Deterministic persist sampling (HYBRID): acc gains rate per
	// persist event and admits one each time it reaches 100.
	rate int
	acc  int

	// Adaptive shedding state.
	budget      float64
	checkEvery  int
	sinceCheck  int
	clock       func() int64
	windowStart int64
	sinkNS      int64

	stats TraceStats
}

// NewTracer builds a tracer for tc, or nil when tc traces nothing
// (OFF, or no sink): attach nothing then, and the run keeps the exact
// no-observer path. Callers must not store the nil *Tracer in an
// Observer interface.
func NewTracer(tc TraceConfig) *Tracer {
	if tc.Mode == TraceOff || tc.Sink == nil {
		return nil
	}
	t := &Tracer{mode: tc.Mode, sink: tc.Sink}
	if tc.Mode == TraceHybrid {
		t.rate = tc.SamplePercent
		if t.rate == 0 {
			t.rate = DefaultSamplePercent
		}
		if tc.OverheadBudget > 0 {
			t.budget = tc.OverheadBudget
			t.checkEvery = tc.CheckEvery
			if t.checkEvery == 0 {
				t.checkEvery = DefaultOverheadCheckEvery
			}
			t.clock = tc.Clock
			if t.clock == nil {
				base := time.Now()
				t.clock = func() int64 { return int64(time.Since(base)) }
			}
			t.windowStart = t.clock()
		}
	}
	return t
}

// Persist traces one persist event.
func (t *Tracer) Persist(r PersistRecord) {
	t.emit(sim.TraceEvent{At: r.Done, Kind: "persist", Arg: uint64(r.Block), Arg2: uint64(r.Done - r.Admit)})
}

// Epoch traces one epoch-flush event.
func (t *Tracer) Epoch(done sim.Cycle, blocks int, latency sim.Cycle) {
	t.emit(sim.TraceEvent{At: done, Kind: "epoch", Arg: uint64(blocks), Arg2: uint64(latency)})
}

// emit filters one event per the mode and delivers it.
func (t *Tracer) emit(ev sim.TraceEvent) {
	if ev.Kind == "persist" {
		switch t.mode {
		case TraceSystemOnly:
			t.stats.Dropped++
			return
		case TraceHybrid:
			t.acc += t.rate
			if t.acc < 100 {
				t.stats.Dropped++
				return
			}
			t.acc -= 100
		}
	}
	t.stats.Emitted++
	if t.budget > 0 {
		before := t.clock()
		t.sink(ev)
		t.sinkNS += t.clock() - before
		t.sinceCheck++
		if t.sinceCheck >= t.checkEvery {
			t.checkOverhead()
		}
		return
	}
	t.sink(ev)
}

// checkOverhead evaluates the sink-time fraction over the window just
// finished and halves the sampling rate while over budget.
func (t *Tracer) checkOverhead() {
	now := t.clock()
	if wall := now - t.windowStart; wall > 0 &&
		float64(t.sinkNS)/float64(wall) > t.budget && t.rate > 0 {
		t.rate /= 2
		t.stats.Sheds++
	}
	t.sinceCheck = 0
	t.sinkNS = 0
	t.windowStart = now
}

// Stats reports what the tracer emitted, dropped and shed so far; the
// plp facade copies it into SimResult.Trace after a traced run.
func (t *Tracer) Stats() TraceStats {
	st := t.stats
	switch t.mode {
	case TraceHybrid:
		st.FinalSamplePercent = t.rate
	case TraceFull:
		st.FinalSamplePercent = 100
	}
	return st
}
