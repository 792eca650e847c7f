package cache

import (
	"fmt"
	"unsafe"
)

// Snapshot is a deep copy of a cache's complete state: tags, dirty
// flags, the LRU ordering (via the per-way stamps and the global
// clock), and the statistics counters. It backs the engine's warm-up
// checkpoints: restoring a snapshot and replaying the same access
// stream reproduces the original cache behaviour bit for bit.
type Snapshot struct {
	sets     int
	ways     int
	policy   Policy
	lruClock uint64
	slots    []uint64
	stats    Stats
}

// Snapshot captures the cache's current state. The copy is deep:
// later accesses to the cache do not disturb it, and one snapshot may
// be restored any number of times.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{
		sets:     c.sets,
		ways:     c.waysPer,
		policy:   c.cfg.Policy,
		lruClock: c.lruClock,
		stats:    c.Stats,
		slots:    append([]uint64(nil), c.slots...),
	}
}

// Restore resets the cache to a previously captured snapshot. The
// snapshot must come from a cache of identical geometry and policy —
// tags index into sets by geometry, so anything else would silently
// scramble the contents; Restore rejects it instead. OnWriteback is
// left untouched. The snapshot remains valid for further restores.
func (c *Cache) Restore(s *Snapshot) error {
	if s.sets != c.sets || s.ways != c.waysPer || s.policy != c.cfg.Policy {
		return fmt.Errorf("cache %s: snapshot geometry %d sets x %d ways (policy %d) does not match %d sets x %d ways (policy %d)",
			c.cfg.Name, s.sets, s.ways, s.policy, c.sets, c.waysPer, c.cfg.Policy)
	}
	copy(c.slots, s.slots)
	c.lruClock = s.lruClock
	c.Stats = s.stats
	return nil
}

// wayBytes is the footprint of one way: its tag and its stamp (which
// carries the dirty flag).
const wayBytes = 2 * unsafe.Sizeof(uint64(0))

// snapshotHeader is the footprint of the Snapshot value itself.
const snapshotHeader = unsafe.Sizeof(Snapshot{})

// Bytes returns the snapshot's memory footprint: its ways and its
// header.
func (s *Snapshot) Bytes() uint64 {
	return uint64(len(s.slots))/2*uint64(wayBytes) + uint64(snapshotHeader)
}
