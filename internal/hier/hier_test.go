package hier

import (
	"reflect"
	"testing"

	"plp/internal/cache"
	"plp/internal/xrand"
)

func tiny(t *testing.T) *Hierarchy {
	t.Helper()
	mk := func(name string, lines, ways int) *cache.Cache {
		return cache.MustNew(cache.Config{
			Name: name, SizeBytes: lines * 64, LineBytes: 64,
			Ways: ways, Policy: cache.WriteBack,
		})
	}
	return MustNew(mk("l1", 4, 2), mk("l2", 16, 4), mk("llc", 64, 8))
}

func TestNewRequiresLevels(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew()
}

func TestHitDepths(t *testing.T) {
	h := tiny(t)
	if d := h.Access(1, false); d != 3 {
		t.Fatalf("cold access depth = %d, want 3 (memory)", d)
	}
	if d := h.Access(1, false); d != 0 {
		t.Fatalf("warm access depth = %d, want 0 (L1)", d)
	}
	if h.MemReads != 1 {
		t.Fatalf("mem reads = %d", h.MemReads)
	}
}

func TestL1EvictionHitsInL2(t *testing.T) {
	h := tiny(t)
	// L1: 2 sets x 2 ways. Lines 0,2,4 map to set 0; third evicts first.
	h.Access(0, false)
	h.Access(2, false)
	h.Access(4, false)
	if d := h.Access(0, false); d != 1 {
		t.Fatalf("evicted-from-L1 line hit at depth %d, want 1 (L2)", d)
	}
}

func TestDirtyCascadesToMemory(t *testing.T) {
	h := tiny(t)
	var wb []cache.Line
	h.OnMemWriteback = func(l cache.Line) { wb = append(wb, l) }
	// Write a line, then stream enough lines through to push it out of
	// every level.
	h.Access(0, true)
	for i := 1; i < 512; i++ {
		h.Access(cache.Line(i), false)
	}
	found := false
	for _, l := range wb {
		if l == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty line never surfaced as memory writeback")
	}
}

func TestCleanStreamNoWritebacks(t *testing.T) {
	h := tiny(t)
	wb := 0
	h.OnMemWriteback = func(cache.Line) { wb++ }
	for i := 0; i < 1000; i++ {
		h.Access(cache.Line(i), false)
	}
	if wb != 0 {
		t.Fatalf("clean stream produced %d writebacks", wb)
	}
}

func TestWritebackCountBoundedByWrites(t *testing.T) {
	h := tiny(t)
	wb := 0
	h.OnMemWriteback = func(cache.Line) { wb++ }
	r := xrand.New(1)
	writes := 0
	for i := 0; i < 20000; i++ {
		w := r.Bool(0.3)
		if w {
			writes++
		}
		h.Access(cache.Line(r.Intn(4096)), w)
	}
	h.FlushAll()
	if wb > writes {
		t.Fatalf("writebacks %d > writes %d", wb, writes)
	}
	if wb == 0 {
		t.Fatal("no writebacks from a thrashing write stream")
	}
}

func TestFlushAllDrainsDirty(t *testing.T) {
	h := tiny(t)
	var wb []cache.Line
	h.OnMemWriteback = func(l cache.Line) { wb = append(wb, l) }
	h.Access(7, true)
	if !h.DirtyAnywhere(7) {
		t.Fatal("written line not dirty")
	}
	h.FlushAll()
	if h.DirtyAnywhere(7) {
		t.Fatal("dirty line survived flush")
	}
	found := false
	for _, l := range wb {
		if l == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("flush lost the dirty line: %v", wb)
	}
}

func TestRewriteAfterEvictionStaysConsistent(t *testing.T) {
	// A line written, evicted to L2 (dirty), then re-written in L1,
	// must produce writebacks but never lose its dirtiness.
	h := tiny(t)
	wb := map[cache.Line]int{}
	h.OnMemWriteback = func(l cache.Line) { wb[l]++ }
	for round := 0; round < 50; round++ {
		h.Access(0, true)
		h.Access(2, false)
		h.Access(4, false) // pushes 0 out of L1 into L2
	}
	h.FlushAll()
	if wb[0] == 0 {
		t.Fatal("dirty line 0 never written back")
	}
}

func TestDefaultGeometry(t *testing.T) {
	h := Default(4096, 32)
	ls := h.Levels()
	if len(ls) != 3 {
		t.Fatalf("levels = %d", len(ls))
	}
	if ls[0].Capacity() != 1024 || ls[1].Capacity() != 8192 || ls[2].Capacity() != 65536 {
		t.Fatalf("capacities: %d %d %d", ls[0].Capacity(), ls[1].Capacity(), ls[2].Capacity())
	}
}

func BenchmarkAccess(b *testing.B) {
	h := Default(4096, 32)
	r := xrand.New(2)
	for i := 0; i < b.N; i++ {
		h.Access(cache.Line(r.Intn(1<<18)), i%4 == 0)
	}
}

// mruAt reports whether l is the most recently used line of its set
// in c, whose sets are all full: on a private copy, l must survive
// ways-1 fills of new lines into its set and fall to the next one.
func mruAt(t *testing.T, c *cache.Cache, l cache.Line) bool {
	t.Helper()
	cp := cache.MustNew(c.Geometry())
	if err := cp.Restore(c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fresh := l + 1<<40 // same set, never accessed by the test stream
	for i := 0; i < cp.Ways()-1; i++ {
		cp.Access(fresh+cache.Line(i*cp.Sets()), false)
	}
	if !cp.Contains(l) {
		return false
	}
	cp.Access(fresh+cache.Line((cp.Ways()-1)*cp.Sets()), false)
	return !cp.Contains(l)
}

// TestHitLeavesLineMRUAbove pins what lets Access stop at the hit:
// after a hit at depth d, the line is resident and the most recently
// used line of its set at every level above d, because each of those
// levels filled it in its own missed Access.
func TestHitLeavesLineMRUAbove(t *testing.T) {
	h := tiny(t)
	r := xrand.New(7)
	// Fill every set at every level first.
	for i := 0; i < 2000; i++ {
		h.Access(cache.Line(r.Intn(256)), r.Intn(3) == 0)
	}
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		l := cache.Line(r.Intn(256))
		d := h.Access(l, r.Intn(3) == 0)
		seen[d]++
		for up := 0; up < d && up < len(h.Levels()); up++ {
			if c := h.Levels()[up]; !c.Contains(l) || !mruAt(t, c, l) {
				t.Fatalf("access %d: line %d hit at depth %d is not MRU at level %d", i, l, d, up)
			}
		}
	}
	for d := 1; d <= len(h.Levels()); d++ {
		if seen[d] == 0 {
			t.Fatalf("stream never hit at depth %d: %v", d, seen)
		}
	}
}

// TestResetMatchesFresh pins that a reset hierarchy replays an access
// stream exactly as a freshly built one does.
func TestResetMatchesFresh(t *testing.T) {
	run := func(h *Hierarchy) (uint64, []cache.Line, []cache.Stats) {
		var wb []cache.Line
		h.OnMemWriteback = func(l cache.Line) { wb = append(wb, l) }
		r := xrand.New(3)
		for i := 0; i < 5000; i++ {
			h.Access(cache.Line(r.Intn(512)), r.Intn(2) == 0)
		}
		var st []cache.Stats
		for _, c := range h.Levels() {
			st = append(st, c.Stats)
		}
		return h.MemReads, wb, st
	}
	used := tiny(t)
	run(used)
	used.Reset()
	if used.OnMemWriteback != nil || used.MemReads != 0 {
		t.Fatal("Reset kept the memory-side hook or counter")
	}
	m1, wb1, st1 := run(tiny(t))
	m2, wb2, st2 := run(used)
	if m1 != m2 || !reflect.DeepEqual(wb1, wb2) || !reflect.DeepEqual(st1, st2) {
		t.Fatal("a reset hierarchy diverges from a fresh one")
	}
}
