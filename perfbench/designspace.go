package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"plp"
	"plp/internal/engine"
	"plp/internal/registry"
	"plp/internal/sim"
	"plp/internal/trace"
)

const (
	// designInstr keeps runs short, so the per-run set-up a fresh
	// session pays (machine and write-merge table allocation) is a
	// large share of each op.
	designInstr = 200_000
	// designPoints is the length of the drawn design list the timed
	// phase cycles through: two blocks of the 36 scheme x BMT-depth
	// combinations.
	designPoints = 72
	// designProfiles is the size of the drawn workload pool; each needs
	// a secure_WB baseline in set-up.
	designProfiles = 8
)

// designLevels are the BMT depths drawn. Deeper trees are left out on
// purpose: one fresh run at 11 levels allocates about 1.3 GB.
var designLevels = []int{8, 9, 10}

type designPoint struct {
	prof int // index into the profile pool
	cfg  plp.SimConfig
}

func (p designPoint) describe(pool []trace.Profile) string {
	return fmt.Sprintf("%s scheme=%s levels=%d epoch=%d wpq=%d mac=%d",
		pool[p.prof].Name, p.cfg.Scheme, p.cfg.BMTLevels, p.cfg.EpochSize, p.cfg.WPQEntries, p.cfg.MACLatency)
}

// designSpace is the library use of examples/designspace: every op
// builds a plp.Session for one design point and runs it with no arena,
// so each run allocates fresh buffers.
type designSpace struct {
	pool   []trace.Profile
	points []designPoint
	ref    *designRef // reference seed only
	seen   repeats
}

// drawDesign draws the profile pool and the design list from seed.
// The pool mixes SPEC profiles with custom ParseProfileSpec workloads;
// each block of 36 points covers every scheme at every BMT depth, with
// the depths in a fixed cycle, each profile serves 9 points, and the epoch size, WPQ
// size and MAC latency are drawn per point.
func drawDesign(seed uint64) ([]trace.Profile, []designPoint, error) {
	rng := newRand(seed, 2)
	// Three SPEC profiles that thrash the LLC and one that does not,
	// about their share of the 15, so the pool's cost varies little
	// from seed to seed.
	var thrash, resident []trace.Profile
	for _, p := range trace.Profiles() {
		if p.ThrashLLC {
			thrash = append(thrash, p)
		} else {
			resident = append(resident, p)
		}
	}
	shuffle(rng, thrash)
	shuffle(rng, resident)
	pool := append(thrash[:3:3], resident[0])
	for i := 0; len(pool) < designProfiles; i++ {
		p, err := trace.ParseProfileSpec(customSpec(rng, i))
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, p)
	}

	// Every pool profile serves the same number of points.
	profs := make([]int, designPoints)
	for i := range profs {
		profs[i] = i % designProfiles
	}
	shuffle(rng, profs)
	epochs := []int{8, 16, 32, 64, 128}
	wpqs := []int{8, 16, 32, 64}
	macs := []int{20, 40, 80}
	var points []designPoint
	for len(points) < designPoints {
		// The depths cycle 8, 9, 10 in every block, and each depth
		// takes the 12 schemes in its own shuffled order. A run's
		// allocation is set mostly by its depth, so the heap's
		// allocation pattern, and with it where GC cycles land, is
		// the same at every seed.
		order := make([][]engine.Scheme, len(designLevels))
		for j := range order {
			order[j] = engine.AllSchemes()
			shuffle(rng, order[j])
		}
		for n := range order[0] {
			for j, l := range designLevels {
				points = append(points, designPoint{
					prof: profs[len(points)],
					cfg: plp.SimConfig{
						Scheme:       order[j][n],
						Instructions: designInstr,
						BMTLevels:    l,
						EpochSize:    epochs[rng.IntN(len(epochs))],
						WPQEntries:   wpqs[rng.IntN(len(wpqs))],
						MACLatency:   sim.Cycle(macs[rng.IntN(len(macs))]),
					},
				})
			}
		}
	}
	return pool, points, nil
}

// customSpec draws custom workload i: store rate, stack share,
// distinct-block rate and trace seed. Workload i draws its store rate
// from the i-th quarter of 40-180 per kilo-instruction, so the pool
// always spans the whole range and its cost varies little by seed.
func customSpec(rng *rand.Rand, i int) string {
	stores := 40 + (float64(i%4)+rng.Float64())*35
	stack := rng.Float64() * 0.5
	nonStack := stores * (1 - stack)
	distinct := nonStack * (0.1 + 0.9*rng.Float64())
	return fmt.Sprintf("name=custom%d,ipc=1.2,stores=%.2f,stack=%.3f,distinct=%.2f,loads=250,thrash=1,seed=%d",
		i, stores, stack, distinct, 1+rng.Uint64N(1<<30))
}

// newDesignSpace draws the design and runs the secure_WB baseline of
// every pool profile, the run examples/designspace normalises each
// design point against before it sweeps.
func newDesignSpace(seed uint64) (session, error) {
	pool, points, err := drawDesign(seed)
	if err != nil {
		return nil, err
	}
	w := &designSpace{pool: pool, points: points, seen: repeats{}}
	if seed == refSeed {
		if w.ref, err = loadDesignRef(); err != nil {
			return nil, err
		}
	}
	for i, p := range pool {
		base, err := simulate(plp.SimConfig{Scheme: plp.SecureWB, Instructions: designInstr}, p)
		if err != nil {
			return nil, err
		}
		run := registry.FromResult(base, nil)
		if err := checkRun(run, plp.SecureWB, p.Name, designInstr); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if w.ref != nil {
			if err := sameRun(w.ref.Baselines[i].Run, run); err != nil {
				return nil, fmt.Errorf("baseline %s: %w", p.Name, err)
			}
		}
	}
	return w, nil
}

// simulate is examples/designspace's helper: one validated session,
// one run.
func simulate(cfg plp.SimConfig, prof plp.Profile) (plp.SimResult, error) {
	s, err := plp.NewSession(plp.WithConfig(cfg), plp.WithProfile(prof))
	if err != nil {
		return plp.SimResult{}, err
	}
	return s.Run()
}

func (w *designSpace) clients() int { return 1 }

// op runs design point k (cycling through the list). Traced, the
// session's run is split into generation and the engine, as in
// seed-sweep, with a span around NewSession.
func (w *designSpace) op(_, k int, ot *opTrace) (uint64, error) {
	i := k % len(w.points)
	p := w.points[i]
	prof := w.pool[p.prof]
	var res plp.SimResult
	if ot == nil {
		var err error
		if res, err = simulate(p.cfg, prof); err != nil {
			return 0, err
		}
	} else {
		t0 := time.Now()
		s, err := plp.NewSession(plp.WithConfig(p.cfg), plp.WithProfile(prof))
		ot.child("plp.NewSession", string(p.cfg.Scheme), t0, time.Now(), nil)
		if err != nil {
			return 0, err
		}
		res = tracedRun(ot, s.Config(), prof)
	}
	run := registry.FromResult(res, nil)
	if err := checkRun(run, p.cfg.Scheme, prof.Name, designInstr); err != nil {
		return 0, err
	}
	if w.ref != nil {
		if err := sameRun(w.ref.Points[i].Run, run); err != nil {
			return 0, fmt.Errorf("point %d (%s): %w", i, p.describe(w.pool), err)
		}
		return run.Instructions, nil
	}
	if err := w.seen.check(fmt.Sprint(i), run); err != nil {
		return 0, err
	}
	return run.Instructions, nil
}

func (w *designSpace) layerCounters() map[string]float64 { return nil }

func (w *designSpace) close() {}

// pinDesignRef runs the reference seed's baselines and design points
// and returns them as the pinned reference.
func pinDesignRef() (*designRef, error) {
	pool, points, err := drawDesign(refSeed)
	if err != nil {
		return nil, err
	}
	ref := &designRef{Seed: refSeed, Instructions: designInstr}
	for _, p := range pool {
		res, err := simulate(plp.SimConfig{Scheme: plp.SecureWB, Instructions: designInstr}, p)
		if err != nil {
			return nil, err
		}
		ref.Baselines = append(ref.Baselines, pinnedRun{Design: p.Name + " scheme=secure_WB", Run: registry.FromResult(res, nil)})
	}
	for _, p := range points {
		res, err := simulate(p.cfg, pool[p.prof])
		if err != nil {
			return nil, err
		}
		ref.Points = append(ref.Points, pinnedRun{Design: p.describe(pool), Run: registry.FromResult(res, nil)})
	}
	return ref, nil
}
