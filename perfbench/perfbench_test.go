package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/jobs"
	"plp/internal/registry"
	"plp/internal/trace"
)

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		value  float64
		pctile float64
	}{
		{0, false, 0, 0},
		{10, false, 10, 100},      // nothing has 10 samples beyond it: the maximum
		{11, true, 1, 100.0 / 11}, // only the minimum has 10 beyond
		{100, true, 90, 90},
		{1000, true, 990, 99},
	} {
		xs := seq(tc.n)
		orig := append([]float64(nil), xs...)
		got, ok := tailOf(xs)
		if ok != tc.ok || got.N != tc.n || got.Value != tc.value || got.Percentile != tc.pctile {
			t.Errorf("n=%d: got %+v ok=%v, want value %v p%v ok=%v", tc.n, got, ok, tc.value, tc.pctile, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > got.Value {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
		if len(xs) > 0 && !reflect.DeepEqual(xs, orig) {
			t.Errorf("n=%d: tailOf modified its input", tc.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// TestVerificationRejectsChangedResult is the negative control for the
// ok_frac gate: a reference point reproduces its pinned Result, and the
// same Result with any one field changed fails verification.
func TestVerificationRejectsChangedResult(t *testing.T) {
	ref, err := loadSeedSweepRef()
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := trace.ProfileByName("gcc")
	res := engine.Run(engine.Config{Scheme: engine.SchemeCoalescing, Instructions: sweepInstr}, prof)
	want := ref["coalescing/gcc"]
	if err := sameRun(want, registry.FromResult(res, nil)); err != nil {
		t.Fatalf("reference point does not reproduce: %v", err)
	}
	if err := checkRun(registry.FromResult(res, nil), engine.SchemeCoalescing, "gcc", sweepInstr); err != nil {
		t.Fatalf("reference point fails the invariants: %v", err)
	}

	for name, change := range map[string]func(r *engine.Result){
		"Cycles":         func(r *engine.Result) { r.Cycles++ },
		"NVMWrites":      func(r *engine.Result) { r.NVMWrites++ },
		"BMTNodeUpdates": func(r *engine.Result) { r.BMTNodeUpdates-- },
		"CtrHitRate":     func(r *engine.Result) { r.CtrHitRate += 1e-12 },
		"PersistLatency": func(r *engine.Result) { r.PersistLatency.Add(1) },
		"Attribution":    func(r *engine.Result) { r.Attribution[0]++ },
	} {
		r := res
		change(&r)
		if err := sameRun(want, registry.FromResult(r, nil)); err == nil {
			t.Errorf("changed %s passed verification", name)
		}
	}

	// Without a reference (other seeds), the invariants catch a wrong
	// run length and unattributed cycles, and repeats catch drift.
	r := registry.FromResult(res, nil)
	r.Instructions--
	if err := checkRun(r, engine.SchemeCoalescing, "gcc", sweepInstr); err == nil {
		t.Error("wrong instruction count passed the invariants")
	}
	r = registry.FromResult(res, nil)
	r.Cycles++
	if err := checkRun(r, engine.SchemeCoalescing, "gcc", sweepInstr); err == nil {
		t.Error("unattributed cycle passed the invariants")
	}
	seen := repeats{}
	if err := seen.check("k", registry.FromResult(res, nil)); err != nil {
		t.Fatal(err)
	}
	changed := res
	changed.Epochs++
	if err := seen.check("k", registry.FromResult(changed, nil)); err == nil {
		t.Error("a repeat with a changed field passed verification")
	}
}

// TestDesignRefMatchesDraw checks that the pinned design-space
// reference describes exactly the design the reference seed draws, so
// a change to the draw cannot silently compare against stale pins.
func TestDesignRefMatchesDraw(t *testing.T) {
	ref, err := loadDesignRef()
	if err != nil {
		t.Fatal(err)
	}
	pool, points, err := drawDesign(refSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Baselines) != len(pool) {
		t.Fatalf("%d pinned baselines, %d pool profiles", len(ref.Baselines), len(pool))
	}
	for i, p := range points {
		if got := p.describe(pool); got != ref.Points[i].Design {
			t.Fatalf("point %d: drawn %q, pinned %q", i, got, ref.Points[i].Design)
		}
	}
	// Every scheme appears at every drawn depth in each block.
	seen := map[string]int{}
	for _, p := range points {
		seen[fmt.Sprintf("%s/%d", p.cfg.Scheme, p.cfg.BMTLevels)]++
	}
	if len(seen) != len(engine.AllSchemes())*len(designLevels) {
		t.Fatalf("design covers %d scheme x depth combinations", len(seen))
	}
	for k, n := range seen {
		if n != designPoints/len(seen) {
			t.Errorf("%s drawn %d times", k, n)
		}
	}
}

// TestJobStream checks the job-service stream: deterministic per seed,
// a minority of crash jobs, every sweep job adds a new point, and
// nearly every sweep job also re-requests a point already run.
func TestJobStream(t *testing.T) {
	a, b := newJobStream(7, 0), newJobStream(7, 0)
	for k := 0; k < 50; k++ {
		if !reflect.DeepEqual(a.job(k), b.job(k)) {
			t.Fatalf("job %d differs between two streams of one seed", k)
		}
	}

	s := newJobStream(3, 1)
	done := map[string]bool{}
	crashes, allNew := 0, 0
	const n = 400
	for k := 0; k < n; k++ {
		spec := s.job(k)
		if spec.Kind == jobs.KindCrash {
			if k < warmJobs {
				t.Errorf("job %d of the warm pass is a crash job", k)
			}
			crashes++
			if len(spec.Crash.Schemes) != 1 || spec.Crash.TraceSeed == 0 || spec.Crash.Parallel != jobRunParallel {
				t.Errorf("job %d: crash spec %+v", k, spec.Crash)
			}
			continue
		}
		seen, fresh := 0, 0
		for _, bn := range spec.Benches {
			for _, sch := range spec.Schemes {
				key := fmt.Sprintf("%s/%s@%d/%d", sch, bn, spec.Instructions, spec.Interval)
				if done[key] {
					seen++
				} else {
					fresh++
				}
				done[key] = true
			}
		}
		if fresh == 0 {
			t.Errorf("job %d is a pure memo lookup: %v x %v", k, spec.Benches, spec.Schemes)
		}
		if seen == 0 {
			allNew++
		}
	}
	if crashes == 0 || crashes > n/4 {
		t.Errorf("%d crash jobs of %d", crashes, n)
	}
	// Only the first job at each window width is all new: 1 in about 42.
	if allNew > n/30 {
		t.Errorf("%d sweep jobs had no repeated point", allNew)
	}
}

func TestCheckCrashRejectsViolations(t *testing.T) {
	spec := jobs.Spec{Kind: jobs.KindCrash, Crash: &crash.CampaignConfig{Schemes: []engine.Scheme{engine.SchemeSP}}}
	f := &registry.CrashFile{Bench: "gcc", Clean: true, Instructions: crashInstr,
		Schemes: []registry.CrashScheme{{Scheme: "sp", Points: 32}}}
	if _, err := checkCrash(spec, f); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	f.Schemes[0].Violations = 1
	f.Clean = false
	if _, err := checkCrash(spec, f); err == nil || !strings.Contains(err.Error(), "not clean") {
		t.Errorf("report with a violation passed: %v", err)
	}
}

// TestJobServiceTracedRun drives the job service with both clients and
// tracing on, so the race detector sees the shared result checks and
// span store from several goroutines at once.
func TestJobServiceTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulation jobs")
	}
	w, _ := findWorkload("job-service")
	s, _, err := setUp(w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	tr := newTracer()
	p := run(s, 300*time.Millisecond, tr)
	if len(p.ops) < jobClients || p.failed() != 0 {
		t.Fatalf("%d ops, %d failed", len(p.ops), p.failed())
	}
	v := layerMetrics(tr.all(), w.prefix)
	if v["jobs.run_ms_p50.sweep"] <= 0 || v["registry.result_kb"] <= 0 {
		t.Errorf("job layers not measured: %v", v)
	}
}
