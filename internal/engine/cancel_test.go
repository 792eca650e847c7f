package engine

import (
	"reflect"
	"sync/atomic"
	"testing"

	"plp/internal/trace"
)

// TestCancelHookEquivalence installs a RunOptions.Cancel hook that never
// fires on every scheme and requires the complete Result (histograms,
// attribution, everything) to match the hook-free run exactly. The
// job service threads context cancellation through this hook, so this
// is the proof that job-mode runs are cycle-identical to CLI runs
// when uncancelled.
func TestCancelHookEquivalence(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		cfg := Config{Scheme: s, Instructions: 60_000, Warmup: 20_000}
		base := Run(cfg, p)
		var polls atomic.Int64
		hooked := Run(cfg, p, RunOptions{Cancel: func() bool { polls.Add(1); return false }})
		if !reflect.DeepEqual(base, hooked) {
			t.Errorf("%s: an unfired cancel hook perturbed the Result", s)
		}
		if polls.Load() == 0 && cfg.Instructions >= cancelPollOps {
			t.Errorf("%s: cancel hook was never polled", s)
		}
	}
}

// TestCancelStopsRun verifies the hook actually halts every scheme
// early: a hook firing from the first poll yields far fewer simulated
// instructions than the configured run length.
func TestCancelStopsRun(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	schemes := AllSchemes()
	for _, s := range schemes {
		var polls int
		cfg := Config{Scheme: s, Instructions: 10_000_000}
		res := Run(cfg, p, RunOptions{Cancel: func() bool { polls++; return true }})
		// The first poll lands cancelPollOps ops in and fires, so the
		// run consumes ~4k of the trace's millions of ops: exactly one
		// poll happens and only a sliver of the persists do.
		if polls != 1 {
			t.Errorf("%s: cancelled run polled %d times, want 1", s, polls)
		}
		if res.Persists > cancelPollOps {
			t.Errorf("%s: cancelled run still performed %d persists", s, res.Persists)
		}
	}
}

// TestCancelDeterministic pins that a cancellation at a fixed poll
// count is itself deterministic: the stop point depends only on the
// op stream, never on wall-clock.
func TestCancelDeterministic(t *testing.T) {
	p, _ := trace.ProfileByName("gamess")
	mk := func() Result {
		var n int
		cfg := Config{Scheme: SchemeCoalescing, Instructions: 10_000_000}
		return Run(cfg, p, RunOptions{Cancel: func() bool { n++; return n > 3 }})
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Error("cancellation at a fixed poll count is nondeterministic")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate: %v", err)
	}
	for _, s := range AllSchemes() {
		if err := (Config{Scheme: s}).Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	bad := []Config{
		{Scheme: "bogus"},
		{BMTLevels: -1},
		{WPQEntries: -4},
		{PTTEntries: -1},
		{ETTSlots: -2},
		{EpochSize: -32},
		{FlushCyclesPerLine: -1},
		{MDCWays: -8},
		{CtrCacheKB: 7}, // 7KB/8-way: set count not a power of two
		{MACCacheKB: 7},
		{BMTCacheKB: 7},
		{MDCWays: 3}, // 64 lines not divisible by 3 ways
		{LLCKB: 3},
		{LLCWays: 3},
		{LLCKB: -4096},
		{BMTLevels: 21}, // Leaves()*BlocksPerPage overflows uint64
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated clean, want error", cfg)
		}
	}
	// The deepest addressable tree validates and runs.
	deepest := Config{Scheme: SchemePipeline, BMTLevels: 20, Instructions: 20_000}
	if err := deepest.Validate(); err != nil {
		t.Fatalf("BMTLevels=20: %v", err)
	}
	p, _ := trace.ProfileByName("gcc")
	if res := Run(deepest, p); res.Persists == 0 || res.BMTNodeUpdates != 20*res.Persists {
		t.Fatalf("BMTLevels=20 run: %d persists, %d node updates", res.Persists, res.BMTNodeUpdates)
	}
}
