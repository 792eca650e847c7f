package harness

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanCtxRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		if err := FanCtx(context.Background(), 32, workers, func(i int) {
			ran.Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 32 {
			t.Fatalf("workers=%d: ran %d of 32", workers, ran.Load())
		}
	}
}

func TestFanCtxStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := FanCtx(ctx, 1000, 2, func(i int) {
		if ran.Add(1) == 4 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err == nil {
		t.Fatal("cancelled FanCtx returned nil error")
	}
	// In-flight items finish; nothing new dispatches after cancel. With
	// 2 workers at most a couple of items were already queued.
	if n := ran.Load(); n >= 100 {
		t.Fatalf("dispatch continued after cancel: %d items ran", n)
	}
}

func TestFanCtxSequentialStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := FanCtx(ctx, 100, 1, func(i int) {
		ran++
		if ran == 3 {
			cancel()
		}
	})
	if err == nil || ran != 3 {
		t.Fatalf("sequential FanCtx: ran=%d err=%v", ran, err)
	}
}

// TestRecordContextEquivalence pins that Record and an uncancelled
// RecordContext produce identical registry runs (timing fields aside):
// the context plumbing must not perturb a single cycle.
func TestRecordContextEquivalence(t *testing.T) {
	o := RecordOptions{
		Options:     Options{Instructions: 40_000, Benches: []string{"gamess", "gcc"}},
		NoTelemetry: true,
	}
	direct := Record(o)
	viaCtx, err := RecordContext(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Also through a cancellable (but never cancelled) context: the
	// RunOptions.Cancel hook is installed on this path and must still not
	// perturb results.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooked, err := RecordContext(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 || len(direct) != len(viaCtx) || len(direct) != len(hooked) {
		t.Fatalf("run counts differ: %d / %d / %d", len(direct), len(viaCtx), len(hooked))
	}
	for i := range direct {
		a, b, c := direct[i], viaCtx[i], hooked[i]
		// Wall-clock throughput is machine noise; blank it for the
		// comparison.
		a.WallNS, b.WallNS, c.WallNS = 0, 0, 0
		a.StoresPerSec, b.StoresPerSec, c.StoresPerSec = 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("run %d: background-context record differs from Record", i)
		}
		if !reflect.DeepEqual(a, c) {
			t.Errorf("run %d: hooked record differs from Record (cycles %d vs %d)",
				i, a.Cycles, c.Cycles)
		}
	}
}

// TestRecordContextCancel verifies a mid-sweep cancellation returns
// promptly with only completed runs and ctx.Err().
func TestRecordContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := RecordOptions{
		Options:     Options{Instructions: 50_000_000, Parallel: 2},
		NoTelemetry: true,
	}
	done := make(chan struct{})
	var got int
	var err error
	go func() {
		defer close(done)
		rs, rerr := RecordContext(ctx, o)
		got, err = len(rs), rerr
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return within 30s")
	}
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	// 15 benches x 6 schemes at 50M instructions each would take
	// minutes; a prompt cancel completes at most a handful.
	if got > 10 {
		t.Fatalf("cancelled sweep reported %d completed runs", got)
	}
}
