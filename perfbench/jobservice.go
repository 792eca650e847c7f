package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"plp/internal/crash"
	"plp/internal/engine"
	"plp/internal/harness"
	"plp/internal/jobs"
	"plp/internal/registry"
	"plp/internal/trace"
)

// The job-service load is pinned here, never derived from the host's
// CPU count, so it is the same on any machine: two closed-loop clients
// against one job worker whose jobs fan out over two goroutines (the
// crash campaign's verification pool takes the same width).
const (
	jobClients     = 2
	jobWorkers     = 1
	jobRunParallel = 2
	// plpserve's default memo and trace-cache bounds.
	jobMemoBytes  = 512 << 20
	jobTraceBytes = 256 << 20

	jobWarmup   = 50_000
	crashEvery  = 8     // about one job in crashEvery is a crash campaign
	crashBench  = "gcc" // the campaign default, which exercises every scheme
	crashInstr  = 20_000
	crashPoints = 24
	crashRandom = 8
	pollEvery   = 200 * time.Microsecond
	warmJobs    = 3 // per client, in set-up
)

// jobService drives an in-process jobs.Service the way plpserve runs
// it: a shared memo and trace cache, telemetry on, results marshalled
// as GET /jobs/{id}/result would.
type jobService struct {
	svc   *jobs.Service
	memo  *harness.Memo
	store *trace.Store
	probe *harness.PoolProbe

	streams [jobClients]*jobStream

	mu   sync.Mutex
	seen repeats // first result of each sweep point

	memo0  harness.MemoStats // counters after set-up
	store0 trace.StoreStats
}

// newJobService builds the service and runs the warm pass: each
// client's first warmJobs jobs, which build its first checkpoints and
// trace batches and give the timed jobs points to repeat.
func newJobService(seed uint64) (session, error) {
	w := &jobService{
		memo:  harness.NewMemo(jobMemoBytes),
		store: trace.NewStore(jobTraceBytes),
		probe: &harness.PoolProbe{},
		seen:  repeats{},
	}
	w.svc = jobs.New(jobs.Config{
		Workers:     jobWorkers,
		RunParallel: jobRunParallel,
		Memo:        w.memo,
		Traces:      w.store,
		Probe:       w.probe,
	})
	errs := make(chan error, jobClients)
	for c := range w.streams {
		w.streams[c] = newJobStream(seed, c)
		go func() {
			var err error
			for k := 0; k < warmJobs && err == nil; k++ {
				_, err = w.runJob(w.streams[c].job(k), nil)
			}
			errs <- err
		}()
	}
	var err error
	for range w.streams {
		err = errors.Join(err, <-errs)
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	w.memo0, w.store0 = w.memo.Stats(), w.store.Stats()
	return w, nil
}

func (w *jobService) clients() int { return jobClients }

// op is one client request: submit client c's k-th job, poll until it
// is terminal, fetch the result and marshal it.
func (w *jobService) op(c, k int, ot *opTrace) (uint64, error) {
	return w.runJob(w.streams[c].job(warmJobs+k), ot)
}

func (w *jobService) runJob(spec jobs.Spec, ot *opTrace) (uint64, error) {
	t0 := time.Now()
	j, err := w.svc.Submit(spec)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	for {
		cur, ok := w.svc.Get(j.ID())
		if !ok {
			return 0, fmt.Errorf("job %s vanished", j.ID())
		}
		if cur.State().Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	res := j.Result()
	t2 := time.Now()
	var data []byte
	if res != nil {
		data, err = registry.MarshalJobResult(res)
	}
	t3 := time.Now()
	if ot != nil {
		w.traceJob(ot, j, res, len(data), t0, t1, t2, t3)
	}
	if st := j.State(); st != jobs.StateSucceeded {
		return 0, fmt.Errorf("job %s (%s) ended %s: %s", j.ID(), spec.Kind, st, j.Status(false).Error)
	}
	if err != nil {
		return 0, err
	}
	if err := res.Validate(); err != nil {
		return 0, err
	}
	if spec.Kind == jobs.KindCrash {
		return checkCrash(spec, res.Crash)
	}
	return w.checkSweep(spec, res.Sweep)
}

// traceJob records the job's layer spans. Queue and run time come from
// the job's Status timestamps.
func (w *jobService) traceJob(ot *opTrace, j *jobs.Job, res *registry.JobResult, bytes int, t0, t1, t2, t3 time.Time) {
	st := j.Status(false)
	ot.child("jobs.Submit", string(st.Kind), t0, t1, nil)
	ot.child("registry.MarshalJobResult", string(st.Kind), t2, t3, map[string]float64{"bytes": float64(bytes)})
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	ot.child("jobs.queue", string(st.Kind), sub, start, nil)
	attrs := map[string]float64{"attempts": float64(st.Attempts)}
	if st.State != jobs.StateSucceeded {
		attrs["failed"] = 1
	}
	switch {
	case res != nil && res.Sweep != nil:
		for _, r := range res.Sweep.Runs {
			attrs["runs"]++
			attrs["persists"] += float64(r.Persists)
			attrs["nvm_writes"] += float64(r.NVMWrites)
			attrs["bmt_node_updates"] += float64(r.BMTNodeUpdates)
			if r.Telemetry != nil {
				attrs["windows"] += float64(len(r.Telemetry.Windows))
			}
		}
	case res != nil && res.Crash != nil:
		for _, s := range res.Crash.Schemes {
			attrs["points"] += float64(s.Points)
			attrs["violations"] += float64(s.Violations)
		}
	}
	ot.child("jobs.run", string(st.Kind), start, fin, attrs)
}

// checkSweep verifies a sweep job's registry file: exactly the points
// asked for, each a sound run, and every point seen before
// bit-identical to its first result.
func (w *jobService) checkSweep(spec jobs.Spec, f *registry.File) (uint64, error) {
	if f == nil {
		return 0, fmt.Errorf("sweep job returned no sweep")
	}
	if want := len(spec.Benches) * len(spec.Schemes); len(f.Runs) != want {
		return 0, fmt.Errorf("sweep returned %d runs, asked for %d", len(f.Runs), want)
	}
	asked := make(map[string]bool, len(f.Runs))
	for _, b := range spec.Benches {
		for _, s := range spec.Schemes {
			asked[s+"/"+b] = true
		}
	}
	var instr uint64
	for _, r := range f.Runs {
		if !asked[r.Key()] {
			return 0, fmt.Errorf("sweep returned %s, which was not asked for", r.Key())
		}
		if err := checkRun(r, engine.Scheme(r.Scheme), r.Bench, spec.Instructions); err != nil {
			return 0, err
		}
		key := fmt.Sprintf("%s@%d+%d/%d", r.Key(), spec.Instructions, spec.Warmup, spec.Interval)
		w.mu.Lock()
		err := w.seen.check(key, r)
		w.mu.Unlock()
		if err != nil {
			return 0, err
		}
		instr += r.Instructions
	}
	return instr, nil
}

// checkCrash verifies a crash job: one report per scheme asked for,
// every crash point verified clean.
func checkCrash(spec jobs.Spec, f *registry.CrashFile) (uint64, error) {
	if f == nil {
		return 0, fmt.Errorf("crash job returned no report")
	}
	if len(f.Schemes) != len(spec.Crash.Schemes) {
		return 0, fmt.Errorf("crash report covers %d schemes, asked for %d", len(f.Schemes), len(spec.Crash.Schemes))
	}
	if !f.Clean {
		return 0, fmt.Errorf("crash campaign on %s (trace seed %d) is not clean", f.Bench, f.TraceSeed)
	}
	for _, s := range f.Schemes {
		if s.Violations != 0 || s.Points == 0 {
			return 0, fmt.Errorf("crash %s: %d violations over %d points", s.Scheme, s.Violations, s.Points)
		}
	}
	return f.Instructions * uint64(len(f.Schemes)), nil
}

// layerCounters reports the memo, trace cache and fan-out pool over
// the timed phase.
func (w *jobService) layerCounters() map[string]float64 {
	m, s := w.memo.Stats(), w.store.Stats()
	return map[string]float64{
		"harness.memo_hit_rate":    ratio(float64(m.Hits-w.memo0.Hits), float64(m.Hits+m.Misses-w.memo0.Hits-w.memo0.Misses)),
		"harness.ckpt_hit_rate":    ratio(float64(m.CheckpointHits-w.memo0.CheckpointHits), float64(m.CheckpointHits+m.CheckpointMisses-w.memo0.CheckpointHits-w.memo0.CheckpointMisses)),
		"harness.memo_evictions":   float64(m.Evictions - w.memo0.Evictions),
		"harness.pool_max_running": float64(w.probe.MaxRunning()),
		"trace.store_hit_rate":     ratio(float64(s.Hits-w.store0.Hits), float64(s.Hits+s.Misses-w.store0.Hits-w.store0.Misses)),
	}
}

// close drains the service: its workers have exited when it returns.
func (w *jobService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w.svc.Drain(ctx)
}

// family is one client's space of sweep points: every bench x scheme
// at the client's run length (instr, jobWarmup), under a telemetry
// window width. The width is in the result memo's key but not in the
// warm-up checkpoint's or the trace cache's, so a fresh width makes
// new points that reuse the client's checkpoints and trace batches:
// the point space never runs out, and memory stays bounded by the 14
// benches the client visits. They are visited in drawn pairs, so each
// sweep job fans out over two; done holds the schemes the current pair
// has run at the current width.
type family struct {
	instr    uint64
	interval uint64
	used     map[uint64]bool // widths already started
	pairs    [][2]string
	cur      int
	done     []engine.Scheme
}

// jobStream is one client's deterministic job sequence.
type jobStream struct {
	rng  *rand.Rand
	fam  family
	jobs []jobs.Spec
}

// newJobStream draws client's run length and bench pairs. Odd and even
// thousands of instructions keep the two clients' points apart.
func newJobStream(seed uint64, client int) *jobStream {
	s := &jobStream{rng: newRand(seed, uint64(10+client))}
	profs := trace.Profiles()
	shuffle(s.rng, profs)
	s.fam.instr = uint64(150_000 + 2000*s.rng.IntN(10) + 1000*client)
	for i := 0; i+1 < len(profs); i += 2 {
		s.fam.pairs = append(s.fam.pairs, [2]string{profs[i].Name, profs[i+1].Name})
	}
	return s
}

// job returns the client's k-th job; clients ask for k in order. The
// first warmJobs jobs are the client's part of the warm pass.
func (s *jobStream) job(k int) jobs.Spec {
	for len(s.jobs) <= k {
		s.jobs = append(s.jobs, s.draw())
	}
	return s.jobs[k]
}

// draw produces the next job: after the warm pass, about one in
// crashEvery is a small crash campaign; the rest are sweep jobs that each re-request points
// already run and add new ones. Only the first job at each window
// width (one sweep job in about 42) has no repeated point.
func (s *jobStream) draw() jobs.Spec {
	f := &s.fam
	if f.interval == 0 {
		return s.restart()
	}
	// The warm pass has no crash jobs: they build no checkpoint or
	// trace batch for the timed jobs, and set-up time would depend on
	// how many the seed put there.
	if len(s.jobs) >= warmJobs && s.rng.IntN(crashEvery) == 0 {
		return jobs.Spec{Kind: jobs.KindCrash, Crash: &crash.CampaignConfig{
			Schemes:      s.pick(engine.AllSchemes(), 1),
			Bench:        crashBench,
			TraceSeed:    1 + s.rng.Uint64N(1<<30),
			Instructions: crashInstr,
			Systematic:   crashPoints,
			Random:       crashRandom,
			Seed:         1 + s.rng.Uint64N(1<<30),
			Parallel:     jobRunParallel,
		}}
	}
	pair := f.pairs[f.cur]
	undone := without(engine.AllSchemes(), f.done)
	switch {
	case len(undone) > 0:
		// One scheme the pair has run, up to two it has not.
		fresh := s.pick(undone, min(2, len(undone)))
		schemes := append(s.pick(f.done, 1), fresh...)
		f.done = append(f.done, fresh...)
		return f.sweep(pair[:], schemes)
	case f.cur+1 < len(f.pairs):
		// The pair is complete: move to the next pair, re-running one
		// finished bench beside it.
		f.cur++
		f.done = s.pick(engine.AllSchemes(), 2)
		next := f.pairs[f.cur]
		return f.sweep([]string{pair[0], next[0], next[1]}, f.done)
	}
	return s.restart()
}

// restart begins the point space again at a window width not used
// before, drawn around the telemetry default of 65536 cycles.
func (s *jobStream) restart() jobs.Spec {
	f := &s.fam
	for f.interval == 0 || f.used[f.interval] {
		f.interval = uint64(32768 + s.rng.IntN(65536))
	}
	if f.used == nil {
		f.used = make(map[uint64]bool)
	}
	f.used[f.interval] = true
	f.cur = 0
	f.done = s.pick(engine.AllSchemes(), 2)
	return f.sweep(f.pairs[0][:], f.done)
}

// sweep builds the job for benches x schemes.
func (f *family) sweep(benches []string, schemes []engine.Scheme) jobs.Spec {
	spec := jobs.Spec{Kind: jobs.KindSweep, Benches: benches, Instructions: f.instr,
		Warmup: jobWarmup, Interval: f.interval}
	for _, sch := range schemes {
		spec.Schemes = append(spec.Schemes, string(sch))
	}
	return spec
}

// pick draws n distinct schemes from from.
func (s *jobStream) pick(from []engine.Scheme, n int) []engine.Scheme {
	c := append([]engine.Scheme(nil), from...)
	shuffle(s.rng, c)
	return c[:n]
}

// without returns the schemes of all that are not in drop.
func without(all, drop []engine.Scheme) []engine.Scheme {
	var out []engine.Scheme
	for _, s := range all {
		found := false
		for _, d := range drop {
			found = found || d == s
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}
