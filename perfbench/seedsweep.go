package main

import (
	"fmt"
	"slices"
	"time"

	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/trace"
)

// sweepInstr is the seed sweep's run length, as in BENCH_seed.json.
const sweepInstr = 2_000_000

type sweepPoint struct {
	prof   trace.Profile
	scheme engine.Scheme
}

// seedSweep is the paper's Fig. 8-shaped sweep (15 profiles x the six
// Table IV schemes) driven the way one `plpbench record` worker drives
// it: one point at a time through engine.Run on a shared arena.
type seedSweep struct {
	points []sweepPoint
	arena  *engine.Arena
	ref    map[string]registry.Run // reference seed only
	seen   repeats
}

// newSeedSweep draws the point order from seed: the benches in a
// shuffled order, each bench's six schemes consecutively in a shuffled
// order, so a partial pass covers whole benches and every scheme
// equally. Other seeds than refSeed also re-seed every profile's
// trace. Set-up grows the arena with one untimed run of a fixed point.
func newSeedSweep(seed uint64) (session, error) {
	w := &seedSweep{arena: engine.NewArena(), seen: repeats{}}
	if seed == refSeed {
		ref, err := loadSeedSweepRef()
		if err != nil {
			return nil, err
		}
		w.ref = ref
	}
	rng := newRand(seed, 1)
	profs := trace.Profiles()
	if seed != refSeed {
		for i := range profs {
			profs[i].Seed = mixSeed(seed, profs[i].Seed)
		}
	}
	shuffle(rng, profs)
	for _, p := range profs {
		schemes := engine.CoreSchemes()
		shuffle(rng, schemes)
		for _, s := range schemes {
			w.points = append(w.points, sweepPoint{prof: p, scheme: s})
		}
	}
	// The warm run is gcc under secure_WB at every seed, so set-up does
	// the same work whatever order is drawn. The arena's buffers are
	// sized by the layout, not the trace, so any point grows them fully.
	warm := w.points[slices.IndexFunc(w.points, func(p sweepPoint) bool {
		return p.prof.Name == "gcc" && p.scheme == engine.SchemeSecureWB
	})]
	engine.Run(w.config(warm.scheme), warm.prof)
	return w, nil
}

func (w *seedSweep) config(s engine.Scheme) engine.Config {
	return engine.Config{Scheme: s, Instructions: sweepInstr, Arena: w.arena}
}

func (w *seedSweep) clients() int { return 1 }

// op runs point k (cycling through the order). Traced, the run is
// split into generation (MaterializeBatch) and the engine over the
// batch's replay, which yields the identical Result.
func (w *seedSweep) op(_, k int, ot *opTrace) (uint64, error) {
	p := w.points[k%len(w.points)]
	cfg := w.config(p.scheme)
	var res engine.Result
	if ot == nil {
		res = engine.Run(cfg, p.prof)
	} else {
		res = tracedRun(ot, cfg, p.prof)
	}
	run := registry.FromResult(res, nil)
	if err := checkRun(run, p.scheme, p.prof.Name, sweepInstr); err != nil {
		return 0, err
	}
	if w.ref != nil {
		want, ok := w.ref[run.Key()]
		if !ok {
			return 0, fmt.Errorf("%s: not in the reference sweep", run.Key())
		}
		if err := sameRun(want, run); err != nil {
			return 0, fmt.Errorf("%s: %w", run.Key(), err)
		}
		return run.Instructions, nil
	}
	if err := w.seen.check(run.Key(), run); err != nil {
		return 0, err
	}
	return run.Instructions, nil
}

func (w *seedSweep) layerCounters() map[string]float64 { return nil }

func (w *seedSweep) close() {}

// tracedRun is engine.Run split at the generation/engine boundary,
// with a span around each half. The engine span carries the run's
// simulated counts and the heap bytes it allocated.
func tracedRun(ot *opTrace, cfg engine.Config, prof trace.Profile) engine.Result {
	n := cfg.Normalized()
	t0 := time.Now()
	batch := trace.MaterializeBatch(prof, n.Instructions+n.Warmup)
	t1 := time.Now()
	ot.child("trace.MaterializeBatch", prof.Name, t0, t1, map[string]float64{"ops": float64(batch.Ops())})

	alloc0, _ := runtimeTotals()
	t2 := time.Now()
	res := engine.RunSource(cfg, prof.Name, prof.IPC, batch.Replay())
	t3 := time.Now()
	alloc1, _ := runtimeTotals()
	ot.child("engine.RunSource", string(res.Scheme), t2, t3, map[string]float64{
		"instr":            float64(res.Instructions),
		"persists":         float64(res.Persists),
		"nvm_writes":       float64(res.NVMWrites),
		"bmt_node_updates": float64(res.BMTNodeUpdates),
		"alloc_bytes":      float64(alloc1 - alloc0),
	})
	return res
}
