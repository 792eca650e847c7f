package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"plp/internal/telemetry"
	"plp/internal/trace"
)

// perOpSource wraps a Generator but hides its BatchSource interface,
// forcing the engine down the per-op fallback path.
type perOpSource struct{ g *trace.Generator }

func (s perOpSource) Next() trace.Op   { return s.g.Next() }
func (s perOpSource) Progress() uint64 { return s.g.Progress() }

// TestBatchedSourceEquivalence runs every scheme twice — once with the
// generator's batched Fill path, once with per-op Next calls — and
// requires the complete Result (histograms, attribution, everything)
// to match exactly. Batching must be invisible to the timing model.
func TestBatchedSourceEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 60_000, Warmup: 20_000}
		batched := RunSource(cfg, p.Name, p.IPC, trace.NewGenerator(p))
		direct := RunSource(cfg, p.Name, p.IPC, perOpSource{trace.NewGenerator(p)})
		if !reflect.DeepEqual(batched, direct) {
			t.Errorf("%s: batched and per-op results differ\nbatched: %+v\ndirect:  %+v",
				s, batched, direct)
		}
	}
}

// TestArenaEquivalence reruns each scheme with a shared, already-dirty
// arena and requires full Result equality with the arena-free run:
// buffer reuse across runs of different schemes must not leak state.
// Each scheme cycles the arena through tree depths 10, 8, 9 and 5, so
// the path table changes shape between consecutive runs, and depth 5
// is a shallow tree over which trace addresses alias.
func TestArenaEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("leslie3d")
	ar := NewArena()
	schemes := AllSchemes()
	for _, s := range schemes {
		for _, levels := range []int{10, 8, 9, 5} {
			cfg := Config{Scheme: s, Instructions: 60_000, BMTLevels: levels}
			clean := Run(cfg, p)
			cfg.Arena = ar
			pooled := Run(cfg, p)
			if !reflect.DeepEqual(clean, pooled) {
				t.Errorf("%s at %d levels: arena-backed result differs from arena-free run", s, levels)
			}
		}
	}
	// Change the cache geometries between runs on the same arena: each
	// run must rebuild or reset the arena's caches to match a fresh
	// run exactly. The caches are small enough to evict within the
	// run, so a cache of the wrong geometry changes the result.
	geos := []Config{
		{LLCKB: 256},
		{LLCKB: 256, LLCWays: 16},
		{},
		{LLCKB: 256, MDCWays: 4, CtrCacheKB: 16, MACCacheKB: 16, BMTCacheKB: 16},
		{LLCKB: 256, MDCWays: 2, CtrCacheKB: 16, MACCacheKB: 16, BMTCacheKB: 16},
		{MDCWays: 4},
		{},
	}
	for _, s := range []Scheme{SchemeSecureWB, SchemeSP, SchemeCoalescing} {
		var distinct []Result
		for _, geo := range geos {
			cfg := geo
			cfg.Scheme, cfg.Instructions = s, 60_000
			clean := Run(cfg, p)
			if !slices.ContainsFunc(distinct, func(r Result) bool { return reflect.DeepEqual(r, clean) }) {
				distinct = append(distinct, clean)
			}
			cfg.Arena = ar
			if pooled := Run(cfg, p); !reflect.DeepEqual(clean, pooled) {
				t.Errorf("%s at LLC %d KB/%d ways, MDC %d ways: arena-backed result differs from arena-free run",
					s, geo.LLCKB, geo.LLCWays, geo.MDCWays)
			}
		}
		if len(distinct) < 3 {
			t.Errorf("%s: the cache geometries gave only %d distinct results; the check above cannot tell caches apart", s, len(distinct))
		}
	}
	// Run the epoch scheme twice more on the same arena: the epoch
	// generation set must self-clean across runs.
	cfg := Config{Scheme: SchemeCoalescing, Instructions: 60_000, Arena: ar}
	first := Run(cfg, p)
	second := Run(cfg, p)
	if !reflect.DeepEqual(first, second) {
		t.Error("coalescing: consecutive runs on one arena diverge")
	}
}

// TestObserverEquivalence pins the observational guarantee of the one
// observer mechanism across every scheme: no observer, the tracer in
// each mode, the telemetry sampler, the crash log, and all three at
// once each leave the entire Result (cycles, persist counts,
// histograms, attribution) equal field for field to the bare run —
// while each observer really sees the run.
func TestObserverEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ar := NewArena()
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := Config{Scheme: s, Instructions: 60_000, Arena: ar}
			bare := Run(cfg, p)
			var events uint64
			sink := func(TraceEvent) { events++ }
			var sampler *telemetry.Sampler
			var log *CrashLog
			// full, sampled and logged say which observers of the case
			// must have seen the whole run.
			cases := []struct {
				name                  string
				obs                   func() Observer
				full, sampled, logged bool
			}{
				{"none", func() Observer { return nil }, false, false, false},
				{"tracer-system", func() Observer { return NewTracer(TraceConfig{Mode: TraceSystemOnly, Sink: sink}) }, false, false, false},
				{"tracer-hybrid", func() Observer { return NewTracer(TraceConfig{Mode: TraceHybrid, Sink: sink}) }, false, false, false},
				{"tracer-full", func() Observer { return NewTracer(TraceConfig{Mode: TraceFull, Sink: sink}) }, true, false, false},
				{"sampler", func() Observer { return Sampling(sampler) }, false, true, false},
				{"crashlog", func() Observer { return log }, false, false, true},
				{"all", func() Observer {
					return Observers(NewTracer(TraceConfig{Mode: TraceFull, Sink: sink}), Sampling(sampler), log)
				}, true, true, true},
			}
			for _, tc := range cases {
				events = 0
				sampler = telemetry.NewSampler(4096, 0, ComponentLabels())
				log = &CrashLog{}
				got := Run(cfg, p, RunOptions{Observer: tc.obs()})
				if !reflect.DeepEqual(got, bare) {
					t.Errorf("%s: the observer perturbed the Result (cycles %d vs %d)", tc.name, got.Cycles, bare.Cycles)
				}
				if want := bare.Persists + bare.Epochs; tc.full && events != want {
					t.Errorf("%s: tracer delivered %d events, want %d", tc.name, events, want)
				}
				ser := sampler.Snapshot()
				if n := ser.Total(func(w telemetry.Window) uint64 { return w.Persists }); tc.sampled && n != bare.Persists {
					t.Errorf("%s: sampler saw %d persists, want %d", tc.name, n, bare.Persists)
				}
				if tc.logged && uint64(len(log.Records)) != bare.Persists {
					t.Errorf("%s: crash log holds %d records, want %d", tc.name, len(log.Records), bare.Persists)
				}
			}
		})
	}
}

// TestCrashLogDeterminism pins the crash campaign's repro contract on
// every scheme: the same (scheme, trace seed, crash cycle) triple
// yields a byte-identical persist log across repeated runs and across
// arena-backed engines, and attaching a log to an uncrashed run leaves
// the Result bit-identical — recording is purely observational.
func TestCrashLogDeterminism(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ar := NewArena()
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 30_000}
		base := Run(cfg, p)

		var logged CrashLog
		if got := Run(cfg, p, RunOptions{Observer: &logged}); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: attaching a crash log perturbed the Result", s)
		}

		crashed := cfg
		crashed.CrashAt = base.Cycles / 2
		logs := make([]CrashLog, 3)
		for i := range logs {
			c := crashed
			if i == 2 {
				c.Arena = ar // arena-backed engine must not leak into the log
			}
			Run(c, p, RunOptions{Observer: &logs[i]})
		}
		want, err := json.Marshal(&logs[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(logs); i++ {
			got, err := json.Marshal(&logs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: crash log %d differs from run 0 at crash cycle %d", s, i, crashed.CrashAt)
			}
		}
	}
}

// TestPhasedSourceStillWorks pins that non-batch sources (PhasedSource
// does not implement trace.BatchSource) keep running through the
// fallback path and produce a sane result.
func TestPhasedSourceStillWorks(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ps := trace.NewPhasedSource(p, trace.Burst(10_000, 10_000, 2))
	if _, ok := interface{}(ps).(trace.BatchSource); ok {
		t.Fatal("PhasedSource unexpectedly implements BatchSource; this test needs a new non-batch source")
	}
	res := RunSource(Config{Scheme: SchemeCoalescing, Instructions: 50_000}, p.Name, p.IPC, ps)
	if res.Cycles == 0 || res.Persists == 0 {
		t.Fatalf("phased run produced empty result: %+v", res)
	}
}
