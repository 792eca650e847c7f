package engine

import (
	"plp/internal/addr"
	"plp/internal/ett"
	"plp/internal/ptt"
	"plp/internal/sim"
	"plp/internal/telemetry"
	"plp/internal/wpq"
)

// RunOptions carries one run's per-run hooks. Neither is a model
// parameter: an attached observer never perturbs timing and an
// unfired cancel hook never does either (both equivalence-pinned over
// every scheme), so the Config alone determines the simulated result
// and is what memoization layers key on.
type RunOptions struct {
	// Observer, when non-nil, receives the run's persist and
	// epoch-flush events, a boundary call after each, and the
	// end-of-run occupancy snapshots. Nil costs one nil check per
	// persist site.
	Observer Observer

	// Cancel, when non-nil, is a cooperative cancellation hook: the run
	// polls it once every cancelPollOps operations and stops early when
	// it returns true, abandoning the remainder of the trace. Polling
	// neither reads nor writes timing state. A cancelled run's partial
	// Result is not meaningful; callers (internal/jobs, the plp facade)
	// discard it and surface the context error instead.
	Cancel func() bool
}

// runOptions collapses Run's optional trailing argument.
func runOptions(opts []RunOptions) RunOptions {
	if len(opts) == 0 {
		return RunOptions{}
	}
	return opts[0]
}

// Observer watches one run through the two events of the paper's
// timing model — a tuple persist (WPQ admission, acknowledgement, BMT
// root completion) and an epoch flush — without feeding anything back
// into it. The mode-aware Tracer, the telemetry sampler (Sampling) and
// CrashLog implement it; Observers combines several. Calls arrive on
// the simulating goroutine, in simulation order.
type Observer interface {
	// Persist receives one tuple persist, in program persist order.
	Persist(PersistRecord)
	// Epoch receives one epoch flush: done is its last root-update
	// completion, blocks its distinct dirty blocks, and latency the
	// cycles from the WPQ drain to done.
	Epoch(done sim.Cycle, blocks int, latency sim.Cycle)
	// Boundary follows every persist (strict schemes) or epoch flush
	// (epoch schemes) at core cycle at, and comes once more at run end
	// with the final cycle. probe builds the run's cumulative
	// telemetry probe at that cycle; it is valid only during the call,
	// and an observer that does not sample never calls it, so nothing
	// is built.
	Boundary(at sim.Cycle, probe func() telemetry.Probe)
	// Finish is the last call: the WPQ/PTT/ETT occupancy snapshots,
	// taken at Config.CrashAt when set and at the final cycle
	// otherwise.
	Finish(Occupancy)
}

// Occupancy holds the persist-tracking hardware's in-flight state at
// one cycle. PTT and ETT are nil for schemes that do not drive them.
type Occupancy struct {
	WPQ wpq.Snapshot
	PTT *ptt.Snapshot
	ETT *ett.Snapshot
}

// nopObserver gives the observers below no-op defaults for the calls
// they ignore.
type nopObserver struct{}

func (nopObserver) Persist(PersistRecord)                      {}
func (nopObserver) Epoch(sim.Cycle, int, sim.Cycle)            {}
func (nopObserver) Boundary(sim.Cycle, func() telemetry.Probe) {}
func (nopObserver) Finish(Occupancy)                           {}

// Observers combines observers into one that calls each in argument
// order. Nil entries are dropped; with none left it returns nil, so
// the run keeps the no-observer path.
func Observers(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type multiObserver []Observer

func (mo multiObserver) Persist(r PersistRecord) {
	for _, o := range mo {
		o.Persist(r)
	}
}

func (mo multiObserver) Epoch(done sim.Cycle, blocks int, latency sim.Cycle) {
	for _, o := range mo {
		o.Epoch(done, blocks, latency)
	}
}

func (mo multiObserver) Boundary(at sim.Cycle, probe func() telemetry.Probe) {
	for _, o := range mo {
		o.Boundary(at, probe)
	}
}

func (mo multiObserver) Finish(occ Occupancy) {
	for _, o := range mo {
		o.Finish(occ)
	}
}

// Sampling adapts a telemetry sampler to an Observer: it records the
// cumulative probe at every boundary, building the windowed time
// series (WPQ/PTT/ETT occupancy, NVM traffic, persists retired,
// stall-cause mix over simulated cycles) whose window deltas sum
// exactly to the Result counters. A nil sampler yields a nil Observer.
func Sampling(s *telemetry.Sampler) Observer {
	if s == nil {
		return nil
	}
	return sampling{s: s}
}

type sampling struct {
	nopObserver
	s *telemetry.Sampler
}

func (o sampling) Boundary(_ sim.Cycle, probe func() telemetry.Probe) { o.s.Record(probe()) }

// retire counts one tuple persist — admitted to the WPQ at admit,
// acknowledged at done, its BMT root update complete at rootDone —
// with its latency, and returns its record.
func (m *machine) retire(res *Result, blk addr.Block, epoch uint64, admit, done, rootDone sim.Cycle) PersistRecord {
	rec := PersistRecord{Seq: res.Persists, Block: blk, Epoch: epoch,
		Admit: admit, Done: done, RootDone: rootDone}
	res.Persists++
	res.PersistLatency.Add(uint64(done - admit))
	return rec
}

// persisted is a strict-persistency runner's persist site: it retires
// the persist and, with an observer attached, reports it followed by a
// boundary at core cycle now. Without one it is a nil check beyond
// the counters (zero allocations, asserted in tests).
func (m *machine) persisted(res *Result, now sim.Cycle, blk addr.Block, admit, done, rootDone sim.Cycle) {
	rec := m.retire(res, blk, 0, admit, done, rootDone)
	if m.obs != nil {
		m.obs.Persist(rec)
		m.boundary(now)
	}
}

// boundary hands the observer a boundary at core cycle at. Callers
// check m.obs first.
func (m *machine) boundary(at sim.Cycle) {
	m.probeAt = at
	m.obs.Boundary(at, m.probe)
}

// buildProbe assembles the cumulative telemetry probe at m.probeAt.
func (m *machine) buildProbe() telemetry.Probe {
	at := m.probeAt
	for i := range m.probeStalls {
		m.probeStalls[i] = m.att.comp[i]
	}
	p := telemetry.Probe{
		At:           at,
		WPQOccupancy: m.q.InFlightAt(at),
		Persists:     m.res.Persists,
		Epochs:       m.res.Epochs,
		NVMReads:     m.mem.Reads,
		NVMWrites:    m.mem.Writes,
		Stalls:       m.probeStalls,
	}
	if m.pttTab != nil {
		p.PTTOccupancy = m.pttTab.InFlightAt(at)
	}
	if m.ettSched != nil {
		p.ETTOccupancy = m.ettSched.InFlightAt(at)
	}
	return p
}

// occupancy snapshots the persist-tracking hardware at cycle at.
func (m *machine) occupancy(at sim.Cycle) Occupancy {
	occ := Occupancy{WPQ: m.q.SnapshotAt(at)}
	if m.pttTab != nil {
		s := m.pttTab.SnapshotAt(at)
		occ.PTT = &s
	}
	if m.ettSched != nil {
		s := m.ettSched.SnapshotAt(at)
		occ.ETT = &s
	}
	return occ
}

// cancelPollOps is the operation interval between RunOptions.Cancel
// polls: frequent enough that a cancellation lands within microseconds
// of wall-clock (a few thousand ops simulate in well under a
// millisecond), rare enough that the poll never shows up in a profile.
const cancelPollOps = 4096

// stopNow reports whether the run must halt at this operation: an
// injected power loss (Config.CrashAt) or a cooperative cancellation
// (RunOptions.Cancel). The crash check is the hot path's single
// comparison; the cancel branch costs a nil check when no hook is
// installed and a countdown decrement when one is. Neither branch
// touches timing state.
func (m *machine) stopNow(coreTime float64) bool {
	if m.crashed(coreTime) {
		return true
	}
	if m.cancel == nil {
		return false
	}
	m.cancelLeft--
	if m.cancelLeft > 0 {
		return false
	}
	m.cancelLeft = cancelPollOps
	if m.cancel() {
		m.cancelStop = true
		return true
	}
	return false
}
