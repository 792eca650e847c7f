// Package bmt implements the Bonsai Merkle Tree: the integrity tree
// that covers the encryption counters of a secure NVMM. It provides
// both the tree *topology* (node labeling, update paths, common
// ancestors) used by the timing models' schedulers, and a *functional*
// hashed tree used by the crash-recovery checker.
//
// Node labeling follows Gassend et al. (the scheme the paper adopts in
// §V-C): the root has label 0, the children of node n are labeled
// n*arity+1 .. n*arity+arity, and the parent of node n is (n-1)/arity.
// Levels are 1-based from the root (root = level 1, leaves = level
// Levels), matching the Lvl field of the paper's PTT/ETT.
package bmt

import (
	"fmt"
	"math/bits"

	"plp/internal/addr"
	"plp/internal/paged"
)

// Label identifies a BMT node.
type Label uint64

// Topology describes an arity^k complete tree.
type Topology struct {
	arity  int
	levels int
	// first[l] is the label of the leftmost node at 1-based level l+1;
	// first[0] = 0 (root).
	first []uint64
	// count[l] is the number of nodes at 1-based level l+1.
	count []uint64
	// arityBits is log2(arity) when arity is a power of two, else 0.
	// It enables the O(1) pairwise-LCA depth computation below.
	arityBits int
	// lcaDepth is the pairwise-LCA depth table for power-of-two
	// arities: lcaDepth[b] is how many parent steps two leaves whose
	// index XOR has bit-length b must take to meet. Precomputed once
	// per topology so the epoch schedulers' pairing needs no Level
	// scans or parent walks.
	lcaDepth [65]int8
}

// NewTopology builds a complete tree with the given number of levels
// (>= 1) and arity (>= 2). The paper's default is 9 levels, arity 8.
// It rejects trees whose node count, or whose leaf count times
// addr.BlocksPerPage, overflows uint64: at arity 8, more than 20 levels.
func NewTopology(levels, arity int) (*Topology, error) {
	if levels < 1 {
		return nil, fmt.Errorf("bmt: levels must be >= 1, got %d", levels)
	}
	if arity < 2 {
		return nil, fmt.Errorf("bmt: arity must be >= 2, got %d", arity)
	}
	// Labels, and the data blocks the leaves cover (one page of
	// addr.BlocksPerPage blocks per leaf), must fit in 64 bits. With
	// arity >= 2, more than 64 levels always overflow.
	tooDeep := fmt.Errorf("bmt: %d levels of arity %d exceed 64-bit addressing", levels, arity)
	if levels > 64 {
		return nil, tooDeep
	}
	t := &Topology{arity: arity, levels: levels}
	t.first = make([]uint64, levels)
	t.count = make([]uint64, levels)
	n := uint64(1)
	firstLabel := uint64(0)
	for l := 0; l < levels; l++ {
		t.first[l] = firstLabel
		t.count[l] = n
		var carry, hi uint64
		if firstLabel, carry = bits.Add64(firstLabel, n, 0); carry != 0 {
			return nil, tooDeep
		}
		if l+1 < levels {
			if hi, n = bits.Mul64(n, uint64(arity)); hi != 0 {
				return nil, tooDeep
			}
		}
	}
	if hi, _ := bits.Mul64(n, addr.BlocksPerPage); hi != 0 {
		return nil, tooDeep
	}
	if arity&(arity-1) == 0 {
		t.arityBits = bits.Len(uint(arity)) - 1
		for b := 1; b <= 64; b++ {
			t.lcaDepth[b] = int8((b + t.arityBits - 1) / t.arityBits)
		}
	}
	return t, nil
}

// MustNewTopology is NewTopology but panics on error.
func MustNewTopology(levels, arity int) *Topology {
	t, err := NewTopology(levels, arity)
	if err != nil {
		panic(err)
	}
	return t
}

// Arity returns the tree arity.
func (t *Topology) Arity() int { return t.arity }

// Levels returns the number of levels (root = level 1, leaves = level
// Levels()).
func (t *Topology) Levels() int { return t.levels }

// Root returns the root label (always 0).
func (t *Topology) Root() Label { return 0 }

// Leaves returns the number of leaf nodes.
func (t *Topology) Leaves() uint64 { return t.count[t.levels-1] }

// Nodes returns the total number of nodes.
func (t *Topology) Nodes() uint64 {
	return t.first[t.levels-1] + t.count[t.levels-1]
}

// LeafLabel returns the label of leaf index i (0-based, left to right).
func (t *Topology) LeafLabel(i uint64) Label {
	if i >= t.Leaves() {
		panic(fmt.Sprintf("bmt: leaf index %d out of range (%d leaves)", i, t.Leaves()))
	}
	return Label(t.first[t.levels-1] + i)
}

// LeafIndex is the inverse of LeafLabel.
func (t *Topology) LeafIndex(l Label) uint64 {
	if !t.IsLeaf(l) {
		panic(fmt.Sprintf("bmt: label %d is not a leaf", l))
	}
	return uint64(l) - t.first[t.levels-1]
}

// Level returns the 1-based level of label l (1 = root).
func (t *Topology) Level(l Label) int {
	for lvl := 0; lvl < t.levels; lvl++ {
		if uint64(l) < t.first[lvl]+t.count[lvl] {
			return lvl + 1
		}
	}
	panic(fmt.Sprintf("bmt: label %d out of range", l))
}

// Parent returns the parent of l; calling it on the root panics.
func (t *Topology) Parent(l Label) Label {
	if l == 0 {
		panic("bmt: root has no parent")
	}
	return (l - 1) / Label(t.arity)
}

// Child returns the i-th child (0-based) of l.
func (t *Topology) Child(l Label, i int) Label {
	if i < 0 || i >= t.arity {
		panic(fmt.Sprintf("bmt: child index %d out of range", i))
	}
	return l*Label(t.arity) + 1 + Label(i)
}

// ChildIndex returns which child of its parent l is (0-based).
func (t *Topology) ChildIndex(l Label) int {
	if l == 0 {
		panic("bmt: root is no one's child")
	}
	return int((uint64(l) - 1) % uint64(t.arity))
}

// IsLeaf reports whether l is a leaf.
func (t *Topology) IsLeaf(l Label) bool {
	return uint64(l) >= t.first[t.levels-1] && uint64(l) < t.Nodes()
}

// IsRoot reports whether l is the root.
func (t *Topology) IsRoot(l Label) bool { return l == 0 }

// UpdatePath returns the labels from leaf (inclusive) to root
// (inclusive): the "BMT update path" of Definition 1. Its length is
// always Levels(). It allocates; hot paths should use AppendUpdatePath
// with a reused buffer or a precomputed PathTable.
func (t *Topology) UpdatePath(leaf Label) []Label {
	return t.AppendUpdatePath(make([]Label, 0, t.levels), leaf)
}

// AppendUpdatePath appends leaf's update path (leaf first, root last)
// to dst and returns the extended slice — allocation-free when dst has
// capacity for Levels() more labels.
func (t *Topology) AppendUpdatePath(dst []Label, leaf Label) []Label {
	if !t.IsLeaf(leaf) {
		panic(fmt.Sprintf("bmt: UpdatePath of non-leaf %d", leaf))
	}
	n := leaf
	for {
		dst = append(dst, n)
		if n == 0 {
			return dst
		}
		n = t.Parent(n)
	}
}

// LeafLCALevel returns the 1-based level of the least common ancestor
// of two *leaf* labels without computing the ancestor itself — the
// only piece of the LCA the coalescing schedulers need. For
// power-of-two arities it is O(1) via the precomputed pairwise depth
// table; otherwise it walks parents. Equivalent to
// Level(LCA(a, b)) when both labels are leaves.
func (t *Topology) LeafLCALevel(a, b Label) int {
	if a == b {
		return t.levels
	}
	if t.arityBits > 0 {
		fl := t.first[t.levels-1]
		x := (uint64(a) - fl) ^ (uint64(b) - fl)
		return t.levels - int(t.lcaDepth[bits.Len64(x)])
	}
	lvl := t.levels
	for a != b {
		a = t.Parent(a)
		b = t.Parent(b)
		lvl--
	}
	return lvl
}

// AncestorAtLevel returns l's ancestor at the given 1-based level,
// which must be <= Level(l).
func (t *Topology) AncestorAtLevel(l Label, level int) Label {
	cur := t.Level(l)
	if level > cur || level < 1 {
		panic(fmt.Sprintf("bmt: no ancestor of %d (level %d) at level %d", l, cur, level))
	}
	for cur > level {
		l = t.Parent(l)
		cur--
	}
	return l
}

// LCA returns the least (lowest-to-leaf) common ancestor of a and b
// (Definition 2). LCA(x, x) == x.
func (t *Topology) LCA(a, b Label) Label {
	la, lb := t.Level(a), t.Level(b)
	for la > lb {
		a = t.Parent(a)
		la--
	}
	for lb > la {
		b = t.Parent(b)
		lb--
	}
	for a != b {
		a = t.Parent(a)
		b = t.Parent(b)
	}
	return a
}

// PathsIntersectBelow reports whether the update paths of leaves a and
// b share a common ancestor below the root — the WAW-hazard condition
// discussed in §IV-B1.
func (t *Topology) PathsIntersectBelow(a, b Label) bool {
	return t.LCA(a, b) != 0
}

// PathTable holds the update paths of the first n leaves (leaf
// indices 0..n-1), each filled on its first lookup: Path(i) is a view
// into a paged label array, so looking up a persist's full leaf-to-root
// path costs an index computation instead of Levels() parent divisions
// and an allocation, and the table's memory follows the leaves a run
// touches. Each path occupies a power-of-two stride of labels, so no
// path straddles a page. The timing engine keeps one per arena, and
// filled paths stay valid for every later run with the same tree shape.
//
// The zero value is an empty table; Reuse points it at a tree.
type PathTable struct {
	topo   *Topology
	levels int
	n      uint64
	shift  uint // log2 of the per-path stride in labels
	labels paged.Table[Label]
}

// Reuse points the table at leaf indices [0, n) of t. Filled paths
// are kept when t has the levels and arity of the table's previous
// tree (labels then match leaf for leaf) and dropped otherwise, their
// pages kept for reuse. n must not exceed the topology's leaf count.
func (pt *PathTable) Reuse(t *Topology, n uint64) {
	if n > t.Leaves() {
		panic(fmt.Sprintf("bmt: path table over %d leaves, tree has %d", n, t.Leaves()))
	}
	if pt.topo == nil || pt.levels != t.levels || pt.topo.arity != t.arity {
		pt.labels.Reset()
		pt.levels = t.levels
		pt.shift = uint(bits.Len(uint(t.levels - 1)))
	}
	pt.topo, pt.n = t, n
	// A topology has at most 64 levels, so the stride (at most 64
	// labels) divides a page (512 labels).
	pt.labels.Grow(n << pt.shift)
}

// Len returns the number of leaf paths the table covers.
func (pt *PathTable) Len() uint64 { return pt.n }

// Path returns leaf index i's update path, leaf first and root last
// (length Levels()), filling it on first lookup. The returned slice
// aliases the table and stays valid across later lookups: callers must
// treat it as read-only.
func (pt *PathTable) Path(i uint64) []Label {
	if i >= pt.n {
		panic(fmt.Sprintf("bmt: path of leaf %d outside the table's %d", i, pt.n))
	}
	p := pt.labels.Span(i<<pt.shift, pt.levels)
	// An unfilled path reads all zeros. A filled one starts with its
	// leaf label, which is nonzero unless the tree is the root alone,
	// whose one-label path [0] is the zero value already.
	if p[0] == 0 && pt.levels > 1 {
		pt.topo.AppendUpdatePath(p[:0], pt.topo.LeafLabel(i))
	}
	return p
}
