// Package cache implements a set-associative cache with true-LRU
// replacement, supporting both write-back and write-through policies.
// It is keyed by abstract 64-bit line identifiers (data block numbers,
// counter-block numbers, MAC-block numbers, or BMT node labels), so the
// same structure serves as L1/L2/LLC and as the three discrete metadata
// caches (counter cache, MAC cache, BMT cache) the paper assumes.
//
// The cache is a tag store only — payloads live with the functional
// models — and is deliberately single-threaded, matching the
// discrete-event simulator that drives it.
package cache

import "fmt"

// Policy selects the write policy.
type Policy uint8

const (
	// WriteBack marks lines dirty on write and emits them on eviction.
	WriteBack Policy = iota
	// WriteThrough never holds dirty lines; every write also propagates
	// to the next level (the caller performs the propagation).
	WriteThrough
)

// Line is an abstract cache line identifier.
type Line uint64

// Stats aggregates cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
	Evictions  uint64 // total evictions (clean + dirty)
	Writes     uint64
	Reads      uint64
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// Cache is a set-associative tag store.
//
// Ways are stored struct-of-arrays, one block of 2*ways words per set
// in set order: the set's packed tags, then its packed LRU stamps. A
// lookup scans only the tags and stops at the hit; only a miss reads
// the stamps, which sit right after the tags, to pick the victim. A
// stamp is the LRU clock of the way's last touch shifted left once,
// with the dirty flag in bit 0, so a way is resident exactly when its
// stamp is nonzero. A tag is the line plus one (wrapping), so an empty
// way is the all-zero value (tag 0, stamp 0, clean), make and clear are
// the only initialisation, and a scan meets tag 0 only for the line
// 2^64-1.
type Cache struct {
	cfg      Config
	sets     int
	waysPer  int
	setMask  uint64
	lruClock uint64
	slots    []uint64 // per set: waysPer tags, then waysPer stamps

	// OnWriteback, if set, is invoked with each dirty line as it is
	// evicted (write-back policy only).
	OnWriteback func(Line)

	Stats Stats
}

// Config describes a cache geometry.
type Config struct {
	Name      string
	SizeBytes int // total capacity
	LineBytes int // line size (64 for all caches in the paper)
	Ways      int
	Policy    Policy
}

// Validate reports whether New would accept cfg, without allocating
// the tag store.
func (cfg Config) Validate() error {
	_, err := cfg.setCount()
	return err
}

// setCount checks cfg's geometry and returns its number of sets.
// SizeBytes must be a multiple of LineBytes*Ways, and the resulting
// set count must be a power of two (true for every configuration in
// the paper's Table III).
func (cfg Config) setCount() (int, error) {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return 0, fmt.Errorf("cache %s: non-positive geometry", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes {
		return 0, fmt.Errorf("cache %s: size %d not a multiple of line %d", cfg.Name, cfg.SizeBytes, cfg.LineBytes)
	}
	sets := lines / cfg.Ways
	if sets*cfg.Ways != lines {
		return 0, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	return sets, nil
}

// New builds a cache; cfg must pass Validate.
func New(cfg Config) (*Cache, error) {
	sets, err := cfg.setCount()
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		waysPer: cfg.Ways,
		setMask: uint64(sets - 1),
		slots:   make([]uint64, 2*sets*cfg.Ways),
	}, nil
}

// MustNew is New but panics on configuration error; for fixed,
// test-validated geometries.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset empties the cache and zeroes its LRU clock and statistics,
// leaving it as New built it; OnWriteback is kept. It lets a caller
// reuse one cache across runs of the same geometry.
func (c *Cache) Reset() {
	clear(c.slots)
	c.lruClock = 0
	c.Stats = Stats{}
}

// Geometry returns the Config the cache was built from.
func (c *Cache) Geometry() Config { return c.cfg }

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.waysPer }

// Capacity returns the number of lines the cache can hold.
func (c *Cache) Capacity() int { return c.sets * c.waysPer }

// dirtyBit is the stamp bit holding the way's dirty flag.
const dirtyBit = 1

// setBase returns the index in slots of the first tag of l's set.
func (c *Cache) setBase(l Line) int { return int(uint64(l)&c.setMask) * 2 * c.waysPer }

// index returns the slot of the tag of l's way, or -1 if l is not
// resident (the way's stamp is waysPer slots further). It scans only
// the set's tags and stops at the hit.
func (c *Cache) index(l Line) int {
	tag := uint64(l) + 1
	base := c.setBase(l)
	for i, t := range c.slots[base : base+c.waysPer] {
		// Empty ways share tag 0 with the line 2^64-1; its way is the
		// one with a nonzero stamp.
		if t == tag && (t != 0 || c.slots[base+c.waysPer+i] != 0) {
			return base + i
		}
	}
	return -1
}

// touch makes the way whose tag is at slot i the most recently used,
// keeping its dirty flag.
func (c *Cache) touch(i int) {
	c.lruClock++
	st := &c.slots[i+c.waysPer]
	*st = c.lruClock<<1 | *st&dirtyBit
}

func (c *Cache) isDirty(i int) bool { return c.slots[i+c.waysPer]&dirtyBit != 0 }

// Contains reports whether l is present, without updating LRU or stats.
func (c *Cache) Contains(l Line) bool { return c.index(l) >= 0 }

// Dirty reports whether l is present and dirty.
func (c *Cache) Dirty(l Line) bool {
	i := c.index(l)
	return i >= 0 && c.isDirty(i)
}

// Access performs a read (write=false) or write (write=true) of line l,
// filling on miss. It returns hit=true if the line was present.
// Any dirty line displaced by the fill is delivered to OnWriteback.
func (c *Cache) Access(l Line, write bool) (hit bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	if i := c.index(l); i >= 0 {
		c.Stats.Hits++
		c.touch(i)
		if write && c.cfg.Policy == WriteBack {
			c.slots[i+c.waysPer] |= dirtyBit
		}
		return true
	}
	c.Stats.Misses++
	c.fill(l, write)
	return false
}

// fill inserts the non-resident line l, evicting as needed. The
// victim is the set's first empty way, else its least recently used
// one. Empty ways are exactly those stamped 0, and resident ways
// carry distinct clocks of at least 1 (the dirty bit sits below the
// clock and cannot reorder them), so both cases are the first way
// with the set's lowest stamp.
func (c *Cache) fill(l Line, write bool) {
	base := c.setBase(l)
	stamps := c.slots[base+c.waysPer : base+2*c.waysPer]
	v := lowest(stamps)
	low := stamps[v]
	if low != 0 {
		c.Stats.Evictions++
		if low&dirtyBit != 0 {
			c.Stats.Writebacks++
			if c.OnWriteback != nil {
				c.OnWriteback(Line(c.slots[base+v] - 1))
			}
		}
	}
	c.slots[base+v] = uint64(l) + 1
	c.lruClock++
	stamps[v] = c.lruClock << 1
	if write && c.cfg.Policy == WriteBack {
		stamps[v] |= dirtyBit
	}
}

// lowest returns the index of the first of the smallest stamps. It
// finds the minimum with branch-free min and then its first position,
// instead of tracking the position in one pass, whose branch on every
// new minimum the CPU cannot predict for LRU stamps.
func lowest(stamps []uint64) int {
	low := stamps[0]
	for _, s := range stamps[1:] {
		low = min(low, s)
	}
	for i, s := range stamps {
		if s == low {
			return i
		}
	}
	panic("unreachable")
}

// WritebackFill receives a dirty line evicted from the level above in
// a cache hierarchy: the line becomes (or stays) resident here and is
// marked dirty, without counting as a demand access. Displaced dirty
// victims flow to OnWriteback as usual.
func (c *Cache) WritebackFill(l Line) {
	if c.cfg.Policy != WriteBack {
		// A write-through level propagates immediately; the caller's
		// OnWriteback wiring handles the next level.
		if c.OnWriteback != nil {
			c.OnWriteback(l)
		}
		return
	}
	if i := c.index(l); i >= 0 {
		c.touch(i)
		c.slots[i+c.waysPer] |= dirtyBit
		return
	}
	c.fill(l, true)
}

// CleanLine clears l's dirty bit if present (e.g. after an explicit
// flush persisted it).
func (c *Cache) CleanLine(l Line) {
	if i := c.index(l); i >= 0 {
		c.slots[i+c.waysPer] &^= dirtyBit
	}
}

// Invalidate removes l, returning whether it was present and dirty.
// The dirty line is NOT delivered to OnWriteback; the caller decides.
func (c *Cache) Invalidate(l Line) (wasDirty bool) {
	if i := c.index(l); i >= 0 {
		wasDirty = c.isDirty(i)
		c.slots[i], c.slots[i+c.waysPer] = 0, 0
	}
	return wasDirty
}

// forEach calls f with the tag slot of every resident way, in set
// then way order.
func (c *Cache) forEach(f func(i int)) {
	for base := 0; base < len(c.slots); base += 2 * c.waysPer {
		for i := base; i < base+c.waysPer; i++ {
			if c.slots[i+c.waysPer] != 0 {
				f(i)
			}
		}
	}
}

// FlushAll evicts every line, delivering dirty ones to OnWriteback.
// Used to drain write-back caches at epoch or simulation end.
func (c *Cache) FlushAll() {
	c.forEach(func(i int) {
		c.Stats.Evictions++
		if c.isDirty(i) {
			c.Stats.Writebacks++
			if c.OnWriteback != nil {
				c.OnWriteback(Line(c.slots[i] - 1))
			}
		}
		c.slots[i], c.slots[i+c.waysPer] = 0, 0
	})
}

// DirtyLines returns all dirty lines currently resident (in no
// particular order). Used by crash simulation: these are exactly the
// updates that will be lost.
func (c *Cache) DirtyLines() []Line {
	var out []Line
	c.forEach(func(i int) {
		if c.isDirty(i) {
			out = append(out, Line(c.slots[i]-1))
		}
	})
	return out
}

// ResidentLines returns all valid lines (for tests and debugging).
func (c *Cache) ResidentLines() []Line {
	var out []Line
	c.forEach(func(i int) { out = append(out, Line(c.slots[i]-1)) })
	return out
}
