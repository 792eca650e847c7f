package engine

import (
	"reflect"
	"testing"

	"plp/internal/trace"
)

// TestCheckpointResumeEquivalence is the checkpoint determinism
// contract: for every scheme, with and without a shared Arena,
// Checkpoint→Resume produces the bit-identical Result to an
// uninterrupted RunSource of the same config.
func TestCheckpointResumeEquivalence(t *testing.T) {
	prof := trace.Profiles()[0]
	schemes := AllSchemes()
	for _, arena := range []bool{false, true} {
		var ar *Arena
		if arena {
			ar = NewArena()
		}
		base := Config{Instructions: 60_000, Warmup: 20_000}
		ck, err := NewCheckpoint(base, prof)
		if err != nil {
			t.Fatalf("arena=%v: %v", arena, err)
		}
		for _, s := range schemes {
			cfg := base
			cfg.Scheme = s
			cfg.Arena = ar
			want := Run(cfg, prof)
			got, err := ck.Resume(cfg)
			if err != nil {
				t.Fatalf("arena=%v %s: resume: %v", arena, s, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("arena=%v %s: resumed result diverged from uninterrupted run\nwant %+v\ngot  %+v", arena, s, want, got)
			}
		}
	}
}

// TestCheckpointIsReusable: one checkpoint resumed twice (same config)
// yields identical results — resume does not consume or mutate it.
func TestCheckpointIsReusable(t *testing.T) {
	prof := trace.Profiles()[0]
	cfg := Config{Scheme: SchemeCoalescing, Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ck.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ck.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("second resume diverged from first")
	}
	if ck.Bytes() == 0 {
		t.Fatal("checkpoint reports zero footprint")
	}
}

// TestCheckpointServesMeasureStageVariants: one checkpoint serves
// configs that differ in StageMeasure knobs (the cross-scheme,
// cross-latency reuse the sweep memoization depends on).
func TestCheckpointServesMeasureStageVariants(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Config{
		{Scheme: SchemePipeline, Instructions: 40_000, Warmup: 15_000, WPQEntries: 8},
		{Scheme: SchemeO3, Instructions: 40_000, Warmup: 15_000, EpochSize: 64},
		{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000, MACCacheKB: 32, BMTCacheKB: 32},
		(Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}).WithMACLatency(0),
		{Scheme: SchemeSecureWB, Instructions: 40_000, Warmup: 15_000, FullMemory: true},
	}
	for _, cfg := range variants {
		want := Run(cfg, prof)
		got, err := ck.Resume(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("scheme %s variant diverged from uninterrupted run", cfg.Scheme)
		}
	}
}

// TestCheckpointFromStoreReplay: a checkpoint built over a trace.Store
// replay resumes bit-identically to the generator path — the two
// memoization layers compose.
func TestCheckpointFromStoreReplay(t *testing.T) {
	prof := trace.Profiles()[0]
	cfg := Config{Scheme: SchemeO3, Instructions: 40_000, Warmup: 15_000}
	want := Run(cfg, prof)

	store := trace.NewStore(0)
	batch := store.Get(prof, cfg.Instructions+cfg.Warmup)
	ck, err := NewCheckpointSource(cfg, prof.Name, prof.Seed, prof.IPC, batch.Replay())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("store-replay checkpoint diverged from generator run")
	}
	// And the replay itself (no checkpoint) matches too.
	direct := RunSource(cfg, prof.Name, prof.IPC, batch.Replay())
	if !reflect.DeepEqual(want, direct) {
		t.Fatal("store replay run diverged from generator run")
	}
}

// TestCheckpointRejectsDivergedConfig: resuming with any StageTrace or
// StageWarmup field changed is an error, not a silently wrong result.
func TestCheckpointRejectsDivergedConfig(t *testing.T) {
	prof := trace.Profiles()[0]
	base := Config{Scheme: SchemeSP, Instructions: 40_000, Warmup: 15_000}
	ck, err := NewCheckpoint(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	mutants := map[string]Config{}
	for name, mutate := range configMutators(t) {
		if warmupKeyed(name) {
			mutants[name] = mutate(base)
		}
	}
	if len(mutants) < 7 {
		t.Fatalf("only %d trace/warmup mutators; divergence map shrank?", len(mutants))
	}
	for name, cfg := range mutants {
		if _, err := ck.Resume(cfg); err == nil {
			t.Errorf("resume accepted config with diverged %s", name)
		}
	}
}
