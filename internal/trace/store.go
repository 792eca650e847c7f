package trace

import (
	"sync"
	"unsafe"
)

// CloneableSource is a Source that can duplicate itself at its
// current position. The clone and the original produce the identical
// remaining op stream independently. The synthetic Generator and the
// store's Replay implement it; the engine requires it to checkpoint a
// warm-up boundary.
type CloneableSource interface {
	Source
	// CloneSource returns an independent deep copy at the current
	// position.
	CloneSource() Source
}

// Key identifies one materialized trace batch. The synthetic op
// stream is a pure function of the benchmark profile (its name and
// calibrated rates) and seed, and a run consumes a prefix bounded by
// its instruction budget — so (bench, seed, instructions) is the
// batch's complete content key.
type Key struct {
	Bench        string
	Seed         uint64
	Instructions uint64
}

// opBytes is the in-memory footprint of one Op, for byte accounting.
var opBytes = uint64(unsafe.Sizeof(Op{}))

// Batch is an immutable materialized prefix of one profile's op
// stream: every op up to (and including the first op crossing) the
// keyed instruction budget, plus the generator state just past the
// last op so replays can continue seamlessly beyond the materialized
// region. A batch is safe for any number of concurrent Replays.
type Batch struct {
	key    Key
	ops    []Op
	instrs uint64 // instructions represented by ops
	tail   CloneableSource
}

// MaterializeBatch generates profile p's op stream up to the
// instruction budget and freezes it. The op sequence is bit-identical
// to what a fresh Generator hands a run of the same budget.
func MaterializeBatch(p Profile, instructions uint64) *Batch {
	g := NewGenerator(p)
	b := &Batch{
		key: Key{Bench: p.Name, Seed: p.Seed, Instructions: instructions},
		ops: make([]Op, 0, g.expectedOps(instructions)),
	}
	// Mirror Generator.Fill's stopping rule: produce while the
	// instruction count is below the budget.
	for g.Instructions < instructions {
		b.ops = append(b.ops, g.Next())
	}
	b.instrs = g.Instructions
	b.tail = g
	return b
}

// Key returns the batch's content key.
func (b *Batch) Key() Key { return b.key }

// Ops returns the number of materialized operations.
func (b *Batch) Ops() int { return len(b.ops) }

// Bytes returns the batch's approximate memory footprint: its op
// slice as allocated plus a fixed allowance for the rest.
func (b *Batch) Bytes() uint64 { return uint64(cap(b.ops))*opBytes + 512 }

// Replay returns a fresh Source over the batch, positioned at the
// start. Replays are independent; a batch serves any number of
// concurrent runs.
func (b *Batch) Replay() *Replay { return &Replay{b: b} }

// Replay streams a batch's ops from memory. It implements Source,
// BatchSource (the engine's zero-dispatch fill path), and
// CloneableSource (so engine checkpoints can capture a position
// inside a replay). Consumers pulling past the materialized end are
// served by a private clone of the batch's tail generator, keeping
// the stream bit-identical to a fresh Generator no matter how far a
// caller reads.
type Replay struct {
	b      *Batch
	pos    int
	instrs uint64
	tail   Source // non-nil once the replay has run off the batch end
}

// Next produces the next operation, satisfying Source.
func (r *Replay) Next() Op {
	if r.pos < len(r.b.ops) {
		op := r.b.ops[r.pos]
		r.pos++
		r.instrs += uint64(op.Gap) + 1
		return op
	}
	if r.tail == nil {
		r.tail = r.b.tail.CloneSource()
	}
	op := r.tail.Next()
	r.instrs += uint64(op.Gap) + 1
	return op
}

// Progress returns the instructions represented so far.
func (r *Replay) Progress() uint64 { return r.instrs }

// Fill writes ops into buf while Progress() < limit, satisfying
// BatchSource with exactly Generator.Fill's stopping rule.
func (r *Replay) Fill(buf []Op, limit uint64) int {
	n := 0
	for n < len(buf) && r.instrs < limit {
		buf[n] = r.Next()
		n++
	}
	return n
}

// CloneSource returns an independent replay at the current position.
func (r *Replay) CloneSource() Source {
	c := *r
	if r.tail != nil {
		c.tail = r.tail.(CloneableSource).CloneSource()
	}
	return &c
}

// StoreStats is a snapshot of a Store's traffic and occupancy.
type StoreStats struct {
	Hits      uint64 // Get calls served by an existing entry
	Misses    uint64 // Get calls that materialized (or joined a materialization)
	Evictions uint64 // entries dropped by the byte bound
	Bytes     uint64 // materialized bytes currently resident
	Entries   int    // entries currently resident
}

// HitRate returns Hits/(Hits+Misses), or 0 for an untouched store.
func (s StoreStats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// DefaultStoreBytes bounds a Store constructed with max 0 (256 MB —
// about forty 2M-instruction batches).
const DefaultStoreBytes = 256 << 20

// Store is a bounded, content-keyed cache of materialized batches:
// the N schemes x M configs of one sweep generate each (bench, seed,
// instructions) trace exactly once instead of NxM times. Concurrent
// first users of a key share a single materialization (singleflight);
// when resident bytes exceed the bound, least-recently-used entries
// are dropped — evicted batches stay valid for the replays already
// holding them, they just leave the index. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	max     uint64
	clock   uint64
	entries map[Key]*storeEntry
	bytes   uint64
	stats   StoreStats
}

type storeEntry struct {
	once    sync.Once
	batch   *Batch
	bytes   uint64
	lastUse uint64
}

// NewStore builds a batch store bounded to maxBytes of materialized
// ops (0 = DefaultStoreBytes).
func NewStore(maxBytes uint64) *Store {
	if maxBytes == 0 {
		maxBytes = DefaultStoreBytes
	}
	return &Store{max: maxBytes, entries: make(map[Key]*storeEntry)}
}

// Get returns the batch for (p, instructions), materializing it
// exactly once per key no matter how many workers ask simultaneously.
func (s *Store) Get(p Profile, instructions uint64) *Batch {
	key := Key{Bench: p.Name, Seed: p.Seed, Instructions: instructions}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
		e = &storeEntry{}
		s.entries[key] = e
	}
	s.clock++
	e.lastUse = s.clock
	s.mu.Unlock()
	e.once.Do(func() {
		e.batch = MaterializeBatch(p, instructions)
		s.mu.Lock()
		e.bytes = e.batch.Bytes()
		s.bytes += e.bytes
		s.evictLocked(e)
		s.mu.Unlock()
	})
	return e.batch
}

// evictLocked drops least-recently-used materialized entries (never
// keep, nor entries still materializing) until bytes fit the bound.
func (s *Store) evictLocked(keep *storeEntry) {
	for s.bytes > s.max {
		var victimKey Key
		var victim *storeEntry
		for k, e := range s.entries {
			if e == keep || e.batch == nil {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victimKey)
		s.bytes -= victim.bytes
		s.stats.Evictions++
	}
}

// Stats returns a consistent snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.bytes
	st.Entries = len(s.entries)
	return st
}
