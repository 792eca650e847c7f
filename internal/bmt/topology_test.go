package bmt

import (
	"testing"
	"testing/quick"
)

// fig1 is the tree of the paper's Fig. 1: 4 levels, arity 8, so 512
// leaves. In the paper's naming, X<level>-<k> is the k-th (1-based)
// node at <level>; e.g. X4-1 is the first leaf and X1-1 the root.
func fig1() *Topology { return MustNewTopology(4, 8) }

// label converts the paper's X<level>-<k> naming to our labels.
func label(t *Topology, level, k int) Label {
	return Label(t.first[level-1] + uint64(k-1))
}

func TestTopologyCounts(t *testing.T) {
	topo := fig1()
	if topo.Leaves() != 512 {
		t.Fatalf("leaves = %d, want 512", topo.Leaves())
	}
	if topo.Nodes() != 1+8+64+512 {
		t.Fatalf("nodes = %d", topo.Nodes())
	}
	if topo.Levels() != 4 || topo.Arity() != 8 {
		t.Fatal("levels/arity wrong")
	}
}

func TestNewTopologyErrors(t *testing.T) {
	if _, err := NewTopology(0, 8); err == nil {
		t.Fatal("levels 0 accepted")
	}
	if _, err := NewTopology(4, 1); err == nil {
		t.Fatal("arity 1 accepted")
	}
	// The deepest trees whose labels and covered data blocks
	// (Leaves()*addr.BlocksPerPage) fit in uint64 build; one level more
	// returns an error instead of wrapping.
	for _, tc := range []struct{ levels, arity int }{{20, 8}, {58, 2}, {2, 1 << 40}} {
		topo, err := NewTopology(tc.levels, tc.arity)
		if err != nil {
			t.Fatalf("levels=%d arity=%d: %v", tc.levels, tc.arity, err)
		}
		if topo.Leaves() == 0 || topo.Nodes() <= topo.Leaves() {
			t.Fatalf("levels=%d arity=%d: counts wrapped (%d leaves, %d nodes)",
				tc.levels, tc.arity, topo.Leaves(), topo.Nodes())
		}
	}
	for _, tc := range []struct{ levels, arity int }{{21, 8}, {23, 8}, {59, 2}, {3, 1 << 40}, {1 << 30, 8}} {
		if _, err := NewTopology(tc.levels, tc.arity); err == nil {
			t.Errorf("levels=%d arity=%d: overflowing tree accepted", tc.levels, tc.arity)
		}
	}
}

func TestUpdatePathFig1(t *testing.T) {
	// Persist δ1's path is (X4-1, X3-1, X2-1, X1-1); δ2's path is
	// (X4-512, X3-64, X2-8, X1-1). — paper Fig. 1.
	topo := fig1()
	d1 := topo.UpdatePath(topo.LeafLabel(0))
	want1 := []Label{label(topo, 4, 1), label(topo, 3, 1), label(topo, 2, 1), label(topo, 1, 1)}
	for i, w := range want1 {
		if d1[i] != w {
			t.Fatalf("δ1 path[%d] = %d, want %d", i, d1[i], w)
		}
	}
	d2 := topo.UpdatePath(topo.LeafLabel(511))
	want2 := []Label{label(topo, 4, 512), label(topo, 3, 64), label(topo, 2, 8), label(topo, 1, 1)}
	for i, w := range want2 {
		if d2[i] != w {
			t.Fatalf("δ2 path[%d] = %d, want %d", i, d2[i], w)
		}
	}
	if len(d1) != topo.Levels() {
		t.Fatalf("path length = %d, want %d", len(d1), topo.Levels())
	}
}

func TestLCAFig1(t *testing.T) {
	topo := fig1()
	// δ1 (X4-1) and δ2 (X4-512) intersect only at the root.
	if lca := topo.LCA(topo.LeafLabel(0), topo.LeafLabel(511)); lca != 0 {
		t.Fatalf("LCA(δ1,δ2) = %d, want root", lca)
	}
	// X4-1 and X4-2 are siblings: LCA is X3-1 (paper §III example).
	if lca := topo.LCA(topo.LeafLabel(0), topo.LeafLabel(1)); lca != label(topo, 3, 1) {
		t.Fatalf("LCA(X4-1,X4-2) = %d, want X3-1=%d", lca, label(topo, 3, 1))
	}
	// LCA of a node with itself is itself.
	if lca := topo.LCA(topo.LeafLabel(5), topo.LeafLabel(5)); lca != topo.LeafLabel(5) {
		t.Fatal("LCA(x,x) != x")
	}
	// Mixed levels: LCA of a leaf and its own ancestor is the ancestor.
	leaf := topo.LeafLabel(7)
	anc := topo.AncestorAtLevel(leaf, 2)
	if lca := topo.LCA(leaf, anc); lca != anc {
		t.Fatalf("LCA(leaf, ancestor) = %d, want %d", lca, anc)
	}
}

func TestPathsIntersectBelow(t *testing.T) {
	topo := fig1()
	if topo.PathsIntersectBelow(topo.LeafLabel(0), topo.LeafLabel(511)) {
		t.Fatal("far leaves should intersect only at root")
	}
	if !topo.PathsIntersectBelow(topo.LeafLabel(0), topo.LeafLabel(1)) {
		t.Fatal("sibling leaves should intersect below root")
	}
}

func TestParentChildInverse(t *testing.T) {
	topo := MustNewTopology(5, 8)
	f := func(raw uint64, ci uint8) bool {
		n := Label(raw % (topo.Nodes() - topo.Leaves())) // interior node
		i := int(ci) % topo.Arity()
		c := topo.Child(n, i)
		return topo.Parent(c) == n && topo.ChildIndex(c) == i &&
			topo.Level(c) == topo.Level(n)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafLabelIndexInverse(t *testing.T) {
	topo := MustNewTopology(4, 8)
	for i := uint64(0); i < topo.Leaves(); i += 13 {
		l := topo.LeafLabel(i)
		if !topo.IsLeaf(l) {
			t.Fatalf("LeafLabel(%d)=%d not a leaf", i, l)
		}
		if topo.LeafIndex(l) != i {
			t.Fatalf("LeafIndex(LeafLabel(%d)) = %d", i, topo.LeafIndex(l))
		}
	}
}

func TestLevelBoundaries(t *testing.T) {
	topo := fig1()
	if topo.Level(0) != 1 {
		t.Fatal("root not level 1")
	}
	if topo.Level(1) != 2 || topo.Level(8) != 2 {
		t.Fatal("level-2 bounds wrong")
	}
	if topo.Level(9) != 3 || topo.Level(72) != 3 {
		t.Fatal("level-3 bounds wrong")
	}
	if topo.Level(73) != 4 || topo.Level(584) != 4 {
		t.Fatal("level-4 bounds wrong")
	}
}

func TestPanics(t *testing.T) {
	topo := fig1()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Parent(root)", func() { topo.Parent(0) })
	mustPanic("ChildIndex(root)", func() { topo.ChildIndex(0) })
	mustPanic("LeafLabel out of range", func() { topo.LeafLabel(topo.Leaves()) })
	mustPanic("LeafIndex non-leaf", func() { topo.LeafIndex(0) })
	mustPanic("UpdatePath non-leaf", func() { topo.UpdatePath(0) })
	mustPanic("Level out of range", func() { topo.Level(Label(topo.Nodes())) })
	mustPanic("Child index", func() { topo.Child(0, 8) })
	mustPanic("AncestorAtLevel below", func() { topo.AncestorAtLevel(0, 2) })
}

func TestPaperDefaultNineLevels(t *testing.T) {
	// Table III: the BMT has 9 levels. With arity 8 that covers
	// 8^8 = 16.7M counter blocks = 64GB of protected memory, enough
	// for the paper's 8GB NVMM.
	topo := MustNewTopology(9, 8)
	if topo.Leaves() != 1<<24 {
		t.Fatalf("leaves = %d, want 2^24", topo.Leaves())
	}
	if got := len(topo.UpdatePath(topo.LeafLabel(12345))); got != 9 {
		t.Fatalf("update path length = %d, want 9", got)
	}
}

func TestLCACommutes(t *testing.T) {
	topo := MustNewTopology(6, 8)
	f := func(a, b uint64) bool {
		la := topo.LeafLabel(a % topo.Leaves())
		lb := topo.LeafLabel(b % topo.Leaves())
		return topo.LCA(la, lb) == topo.LCA(lb, la)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLCAIsCommonAncestor(t *testing.T) {
	topo := MustNewTopology(6, 8)
	onPath := func(n, leaf Label) bool {
		for _, p := range topo.UpdatePath(leaf) {
			if p == n {
				return true
			}
		}
		return false
	}
	f := func(a, b uint64) bool {
		la := topo.LeafLabel(a % topo.Leaves())
		lb := topo.LeafLabel(b % topo.Leaves())
		lca := topo.LCA(la, lb)
		if !onPath(lca, la) || !onPath(lca, lb) {
			return false
		}
		// No deeper common ancestor: the children of lca on each path
		// must differ (unless lca is a leaf, i.e. la == lb).
		if topo.IsLeaf(lca) {
			return la == lb
		}
		ca := topo.AncestorAtLevel(la, topo.Level(lca)+1)
		cb := topo.AncestorAtLevel(lb, topo.Level(lca)+1)
		return ca != cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdatePath(b *testing.B) {
	topo := MustNewTopology(9, 8)
	for i := 0; i < b.N; i++ {
		_ = topo.UpdatePath(topo.LeafLabel(uint64(i) % topo.Leaves()))
	}
}

func BenchmarkLCA(b *testing.B) {
	topo := MustNewTopology(9, 8)
	for i := 0; i < b.N; i++ {
		_ = topo.LCA(topo.LeafLabel(uint64(i)%topo.Leaves()), topo.LeafLabel(uint64(i*7)%topo.Leaves()))
	}
}
