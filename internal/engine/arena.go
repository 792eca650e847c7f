package engine

import (
	"plp/internal/bmt"
	"plp/internal/cache"
	"plp/internal/hier"
	"plp/internal/paged"
	"plp/internal/sim"
	"plp/internal/trace"
)

// Arena holds the reusable buffers of a run's hot path: the
// write-merge table (one cycle per data, counter and MAC line), the
// epoch-membership generation stamps (one per trace block), the BMT
// path table, the trace batch buffer, and the six caches. The first
// three are paged tables (package paged): they are indexed across the
// whole modelled memory but allocate 4 KB pages only where a run
// touches, so a run's memory follows the lines it touches and not the
// tree depth. Sweeps that execute many runs back to back hand the same
// arena to each Config so the pages and tag stores allocate once per
// worker instead of once per run; results are bit-identical with or
// without one.
//
// An arena is not safe for concurrent use: at most one run may use it
// at a time. The zero value is ready to use.
type Arena struct {
	writes   paged.Table[sim.Cycle]
	stamps   paged.Table[uint32]
	stampGen uint32
	paths    bmt.PathTable
	ops      []trace.Op

	// The run's caches: the L1/L2/LLC data hierarchy and the counter,
	// MAC and BMT caches, reused while their geometry matches.
	data          *hier.Hierarchy
	ctr, mac, bmt *cache.Cache
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// writeTable returns the write-merge table over lines [0, n), all
// zero. Reuse zeroes only the pages the previous run touched.
func (a *Arena) writeTable(n uint64) *paged.Table[sim.Cycle] {
	a.writes.Reset()
	a.writes.Grow(n)
	return &a.writes
}

// gens returns the epoch generation-stamp table over blocks [0, n)
// and the current generation counter. The table is NOT cleared on
// reuse: the counter is monotonic across runs sharing the arena, so
// stale stamps from earlier runs can never equal a current generation
// (0 is the never-stamped sentinel; the counter is bumped past it
// before use).
func (a *Arena) gens(n uint64) (*paged.Table[uint32], uint32) {
	a.stamps.Grow(n)
	return &a.stamps, a.stampGen
}

// opBuf returns a trace batch buffer of length n.
func (a *Arena) opBuf(n int) []trace.Op {
	if cap(a.ops) < n {
		a.ops = make([]trace.Op, n)
	}
	return a.ops[:n]
}

// pathTable returns the arena's PathTable over the first n leaves of
// t. Paths filled by earlier runs stay valid while the tree shape
// matches (the engine's trees are always arity 8, so the level count
// decides).
func (a *Arena) pathTable(t *bmt.Topology, n uint64) *bmt.PathTable {
	a.paths.Reuse(t, n)
	return &a.paths
}

// reuseCache returns *slot emptied when it has geo's geometry, else a
// new cache of that geometry stored in *slot.
func reuseCache(slot **cache.Cache, geo cache.Config) *cache.Cache {
	if c := *slot; c != nil && c.Geometry() == geo {
		c.Reset()
		return c
	}
	*slot = cache.MustNew(geo)
	return *slot
}

// hierarchy returns the arena's Table III data hierarchy emptied when
// its LLC has the given capacity and associativity, else a new one.
func (a *Arena) hierarchy(llcKB, llcWays int) *hier.Hierarchy {
	if a.data != nil && a.data.Levels()[2].Geometry() == hier.DefaultLevels(llcKB, llcWays)[2] {
		a.data.Reset()
		return a.data
	}
	a.data = hier.Default(llcKB, llcWays)
	return a.data
}
