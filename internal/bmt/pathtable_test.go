package bmt

import (
	"testing"

	"plp/internal/xrand"
)

// TestPathTableMatchesUpdatePath checks every table path against the
// walking implementation, across arities and depths (including a
// non-power-of-two arity, which exercises the slow LCA path too).
// Leaves are read in a shuffled order, twice, so both the lazy fill
// and lookups of filled paths are checked; one table is reused across
// every topology, so shape changes must drop stale paths.
func TestPathTableMatchesUpdatePath(t *testing.T) {
	rng := xrand.New(7)
	var pt PathTable
	for _, tc := range []struct{ levels, arity int }{
		{1, 2}, {2, 2}, {3, 2}, {4, 8}, {9, 8}, {3, 3}, {4, 5}, {9, 8},
	} {
		topo := MustNewTopology(tc.levels, tc.arity)
		n := topo.Leaves()
		if n > 4096 {
			n = 4096
		}
		pt.Reuse(topo, n)
		if pt.Len() != n {
			t.Fatalf("levels=%d arity=%d: Len=%d want %d", tc.levels, tc.arity, pt.Len(), n)
		}
		order := make([]uint64, n)
		for i := range order {
			order[i] = uint64(i)
		}
		var held [][]Label // earlier views must stay valid across lookups
		for pass := 0; pass < 2; pass++ {
			for i := len(order) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for _, i := range order {
				got := pt.Path(i)
				if pass == 0 && len(held) < 64 {
					held = append(held, got)
				}
				checkPath(t, tc.levels, tc.arity, topo, i, got)
			}
		}
		for _, p := range held {
			checkPath(t, tc.levels, tc.arity, topo, topo.LeafIndex(p[0]), p)
		}
	}
}

func checkPath(t *testing.T, levels, arity int, topo *Topology, i uint64, got []Label) {
	t.Helper()
	want := topo.UpdatePath(topo.LeafLabel(i))
	if len(got) != len(want) {
		t.Fatalf("levels=%d arity=%d leaf %d: path length %d want %d",
			levels, arity, i, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("levels=%d arity=%d leaf %d: path[%d]=%d want %d",
				levels, arity, i, k, got[k], want[k])
		}
	}
}

func TestPathTableRejectsOversize(t *testing.T) {
	topo := MustNewTopology(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("a path table beyond the leaf count should panic")
		}
	}()
	var pt PathTable
	pt.Reuse(topo, topo.Leaves()+1)
}

// TestLeafLCALevelMatchesLCA cross-checks the O(1) pairwise LCA level
// against Level(LCA(a,b)) for every leaf pair of several topologies,
// power-of-two arities (fast path) and not (parent walk).
func TestLeafLCALevelMatchesLCA(t *testing.T) {
	for _, tc := range []struct{ levels, arity int }{
		{1, 2}, {2, 2}, {4, 2}, {3, 4}, {4, 8}, {3, 3}, {3, 5},
	} {
		topo := MustNewTopology(tc.levels, tc.arity)
		n := topo.Leaves()
		if n > 128 {
			n = 128
		}
		for i := uint64(0); i < n; i++ {
			for j := uint64(0); j < n; j++ {
				a, b := topo.LeafLabel(i), topo.LeafLabel(j)
				want := topo.Level(topo.LCA(a, b))
				if got := topo.LeafLCALevel(a, b); got != want {
					t.Fatalf("levels=%d arity=%d leaves %d,%d: LeafLCALevel=%d want %d",
						tc.levels, tc.arity, i, j, got, want)
				}
			}
		}
	}
}

// TestAppendUpdatePathReuse verifies the append form neither allocates
// beyond the provided capacity nor corrupts prior content.
func TestAppendUpdatePathReuse(t *testing.T) {
	topo := MustNewTopology(9, 8)
	buf := make([]Label, 0, topo.Levels())
	first := topo.AppendUpdatePath(buf, topo.LeafLabel(7))
	if len(first) != topo.Levels() {
		t.Fatalf("path length %d, want %d", len(first), topo.Levels())
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = topo.AppendUpdatePath(buf[:0], topo.LeafLabel(12345))
	})
	if allocs != 0 {
		t.Fatalf("AppendUpdatePath with capacity allocated %.1f objects/op", allocs)
	}
}

// BenchmarkBMTAncestorPath compares the per-persist path lookup before
// (UpdatePath allocation + parent walk) and after (PathTable index).
func BenchmarkBMTAncestorPath(b *testing.B) {
	topo := MustNewTopology(9, 8)
	const n = 131_072
	var pt PathTable
	pt.Reuse(topo, n)
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		var sink Label
		for i := 0; i < b.N; i++ {
			p := topo.UpdatePath(topo.LeafLabel(uint64(i) % n))
			sink += p[0]
		}
		_ = sink
	})
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		var sink Label
		for i := 0; i < b.N; i++ {
			p := pt.Path(uint64(i) % n)
			sink += p[0]
		}
		_ = sink
	})
}
