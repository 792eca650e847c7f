package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refCache is the array-of-structs tag store the struct-of-arrays
// Cache replaced, kept here as the oracle for the differential test:
// one struct per way, a find scan for hits and a second victim scan
// for fills.
type refCache struct {
	sets, waysPer int
	policy        Policy
	lruClock      uint64
	data          []refWay
	onWriteback   func(Line)
	stats         Stats
}

type refWay struct {
	tag   Line
	valid bool
	dirty bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &refCache{sets: sets, waysPer: cfg.Ways, policy: cfg.Policy, data: make([]refWay, sets*cfg.Ways)}
}

func (c *refCache) setOf(l Line) int { return int(uint64(l) & uint64(c.sets-1)) }

func (c *refCache) find(l Line) *refWay {
	base := c.setOf(l) * c.waysPer
	for i := 0; i < c.waysPer; i++ {
		w := &c.data[base+i]
		if w.valid && w.tag == l {
			return w
		}
	}
	return nil
}

func (c *refCache) victim(l Line) *refWay {
	base := c.setOf(l) * c.waysPer
	var v *refWay
	for i := 0; i < c.waysPer; i++ {
		w := &c.data[base+i]
		if !w.valid {
			return w
		}
		if v == nil || w.lru < v.lru {
			v = w
		}
	}
	return v
}

func (c *refCache) touch(w *refWay) {
	c.lruClock++
	w.lru = c.lruClock
}

func (c *refCache) Contains(l Line) bool { return c.find(l) != nil }

func (c *refCache) Dirty(l Line) bool {
	w := c.find(l)
	return w != nil && w.dirty
}

func (c *refCache) Access(l Line, write bool) bool {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if w := c.find(l); w != nil {
		c.stats.Hits++
		c.touch(w)
		if write && c.policy == WriteBack {
			w.dirty = true
		}
		return true
	}
	c.stats.Misses++
	c.fill(l, write)
	return false
}

func (c *refCache) fill(l Line, write bool) {
	v := c.victim(l)
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			if c.onWriteback != nil {
				c.onWriteback(v.tag)
			}
		}
	}
	v.valid = true
	v.tag = l
	v.dirty = write && c.policy == WriteBack
	c.touch(v)
}

func (c *refCache) WritebackFill(l Line) {
	if c.policy != WriteBack {
		if c.onWriteback != nil {
			c.onWriteback(l)
		}
		return
	}
	if w := c.find(l); w != nil {
		c.touch(w)
		w.dirty = true
		return
	}
	c.fill(l, true)
}

func (c *refCache) CleanLine(l Line) {
	if w := c.find(l); w != nil {
		w.dirty = false
	}
}

func (c *refCache) Invalidate(l Line) (wasDirty bool) {
	if w := c.find(l); w != nil {
		wasDirty = w.dirty
		w.valid = false
		w.dirty = false
	}
	return wasDirty
}

func (c *refCache) FlushAll() {
	for i := range c.data {
		w := &c.data[i]
		if w.valid {
			c.stats.Evictions++
			if w.dirty {
				c.stats.Writebacks++
				if c.onWriteback != nil {
					c.onWriteback(w.tag)
				}
			}
			w.valid = false
			w.dirty = false
		}
	}
}

func (c *refCache) DirtyLines() []Line {
	var out []Line
	for i := range c.data {
		if c.data[i].valid && c.data[i].dirty {
			out = append(out, c.data[i].tag)
		}
	}
	return out
}

func (c *refCache) ResidentLines() []Line {
	var out []Line
	for i := range c.data {
		if c.data[i].valid {
			out = append(out, c.data[i].tag)
		}
	}
	return out
}

// refSnapshot is the oracle's deep copy, for the Snapshot+Restore op.
type refSnapshot struct {
	lruClock uint64
	data     []refWay
	stats    Stats
}

func (c *refCache) snapshot() refSnapshot {
	return refSnapshot{c.lruClock, append([]refWay(nil), c.data...), c.stats}
}

func (c *refCache) restore(s refSnapshot) {
	copy(c.data, s.data)
	c.lruClock = s.lruClock
	c.stats = s.stats
}

// TestMatchesArrayOfStructsOracle drives the cache and the oracle
// through the same random mix of every state-changing operation —
// demand reads and writes, writeback fills, cleans, invalidations,
// full flushes, and snapshot/restore round trips — over direct-mapped,
// 8-way and 32-way geometries, and requires identical answers,
// statistics, writeback sequences, and resident and dirty lines (in
// way order) throughout.
func TestMatchesArrayOfStructsOracle(t *testing.T) {
	// top runs count down from the largest line, whose tag (line+1)
	// wraps to the empty ways' 0.
	geos := []struct {
		Config
		top bool
	}{
		{Config{Name: "dm", SizeBytes: 64 * 64, LineBytes: 64, Ways: 1, Policy: WriteBack}, false},
		{Config{Name: "w8", SizeBytes: 64 * 8 * 16, LineBytes: 64, Ways: 8, Policy: WriteBack}, false},
		{Config{Name: "w32", SizeBytes: 64 * 32 * 8, LineBytes: 64, Ways: 32, Policy: WriteBack}, false},
		{Config{Name: "w32-1set", SizeBytes: 64 * 32, LineBytes: 64, Ways: 32, Policy: WriteBack}, false},
		{Config{Name: "wt8", SizeBytes: 64 * 8 * 16, LineBytes: 64, Ways: 8, Policy: WriteThrough}, false},
		{Config{Name: "w8-top", SizeBytes: 64 * 8 * 16, LineBytes: 64, Ways: 8, Policy: WriteBack}, true},
		{Config{Name: "w4-1set-top", SizeBytes: 64 * 4, LineBytes: 64, Ways: 4, Policy: WriteBack}, true},
	}
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	for gi, geo := range geos {
		t.Run(geo.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(gi) + 1))
			c := MustNew(geo.Config)
			ref := newRef(geo.Config)
			var got, want []Line
			writebacks := 0
			c.OnWriteback = func(l Line) { got = append(got, l) }
			ref.onWriteback = func(l Line) { want = append(want, l) }
			// Lines span 3x the capacity, so sets stay contended.
			span := 3 * c.Capacity()
			var snap *Snapshot
			var refSnap refSnapshot
			for i := 0; i < steps; i++ {
				l := Line(rng.Intn(span))
				if geo.top {
					l = ^l
				}
				var desc string
				switch op := rng.Intn(100); {
				case op < 60:
					w := rng.Intn(3) == 0
					desc = fmt.Sprintf("Access(%d, %v)", l, w)
					if a, b := c.Access(l, w), ref.Access(l, w); a != b {
						t.Fatalf("step %d %s: hit %v, oracle %v", i, desc, a, b)
					}
				case op < 75:
					desc = fmt.Sprintf("WritebackFill(%d)", l)
					c.WritebackFill(l)
					ref.WritebackFill(l)
				case op < 83:
					desc = fmt.Sprintf("CleanLine(%d)", l)
					c.CleanLine(l)
					ref.CleanLine(l)
				case op < 91:
					desc = fmt.Sprintf("Invalidate(%d)", l)
					if a, b := c.Invalidate(l), ref.Invalidate(l); a != b {
						t.Fatalf("step %d %s: dirty %v, oracle %v", i, desc, a, b)
					}
				case op < 96:
					desc = fmt.Sprintf("Contains/Dirty(%d)", l)
					if c.Contains(l) != ref.Contains(l) || c.Dirty(l) != ref.Dirty(l) {
						t.Fatalf("step %d %s: presence differs from oracle", i, desc)
					}
				case op < 97:
					desc = "FlushAll"
					c.FlushAll()
					ref.FlushAll()
				case op < 99 || snap == nil:
					desc = "Snapshot"
					snap, refSnap = c.Snapshot(), ref.snapshot()
				default:
					desc = "Restore"
					if err := c.Restore(snap); err != nil {
						t.Fatal(err)
					}
					ref.restore(refSnap)
				}
				if c.Stats != ref.stats {
					t.Fatalf("step %d %s: stats %+v, oracle %+v", i, desc, c.Stats, ref.stats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d %s: writebacks %v, oracle %v", i, desc, got, want)
				}
				writebacks += len(want)
				got, want = got[:0], want[:0]
				if i%97 == 0 || desc == "FlushAll" || desc == "Restore" {
					if a, b := c.ResidentLines(), ref.ResidentLines(); !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d %s: resident %v, oracle %v", i, desc, a, b)
					}
					if a, b := c.DirtyLines(), ref.DirtyLines(); !reflect.DeepEqual(a, b) {
						t.Fatalf("step %d %s: dirty %v, oracle %v", i, desc, a, b)
					}
				}
			}
			if c.Stats.Evictions == 0 || c.Stats.Hits == 0 || writebacks == 0 {
				t.Fatalf("mix exercised too little: %+v, %d writebacks", c.Stats, writebacks)
			}
		})
	}
}
