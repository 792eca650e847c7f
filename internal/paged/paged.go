// Package paged provides Table, a sparse array that allocates its
// storage in 4 KB pages on first touch. The timing engine's per-run
// tables are indexed by addresses that span the whole modelled memory,
// while a run touches a small part of it; a paged table costs memory
// and clearing time in proportion to the pages a run touches, not to
// its index range.
package paged

import (
	"math/bits"
	"unsafe"
)

// PageBytes is the size of one page of entries.
const PageBytes = 4096

// Table is a sparse array of T indexed by uint64. Entries read as the
// zero value until written. A page allocates on the first touch of any
// of its entries and stays in place until Reset, so pointers and
// slices into the table stay valid until then. Reset zeroes only the
// pages in use and keeps them for reuse, so a table handed from run to
// run allocates only when a run touches more pages than any before it.
//
// T must be smaller than a page and not empty. The zero value is an
// empty table; Grow sets its length. A Table is not safe for
// concurrent use.
type Table[T any] struct {
	dir   [][]T // dir[i>>shift] is the page holding entry i, nil until touched
	used  []int // dir slots holding a page, in touch order
	free  [][]T // zeroed pages kept by Reset, taken before allocating
	shift uint  // log2 of the page length in entries
	mask  uint64
}

// Grow extends the table so that indices below n are valid. It never
// shrinks the table and allocates no page.
func (t *Table[T]) Grow(n uint64) {
	if t.mask == 0 {
		var zero T
		per := PageBytes / uint64(unsafe.Sizeof(zero))
		t.shift = uint(bits.Len64(per) - 1) // round down to a power of two
		t.mask = 1<<t.shift - 1
	}
	if pages := (n + t.mask) >> t.shift; pages > uint64(len(t.dir)) {
		t.dir = append(t.dir, make([][]T, pages-uint64(len(t.dir)))...)
	}
}

// Len returns the number of valid indices: the length Grow asked for,
// rounded up to a whole page.
func (t *Table[T]) Len() uint64 { return uint64(len(t.dir)) << t.shift }

// At returns a pointer to entry i, allocating its page on first touch.
// The pointer stays valid until Reset.
func (t *Table[T]) At(i uint64) *T {
	p := t.dir[i>>t.shift]
	if p == nil {
		p = t.page(i >> t.shift)
	}
	return &p[i&t.mask]
}

// Span returns entries [i, i+n) as one slice, allocating their page on
// first touch. The entries must lie on one page. The slice stays valid
// until Reset.
func (t *Table[T]) Span(i uint64, n int) []T {
	p := t.dir[i>>t.shift]
	if p == nil {
		p = t.page(i >> t.shift)
	}
	off := i & t.mask
	return p[off : off+uint64(n) : off+uint64(n)]
}

// page installs a zeroed page at directory slot d.
func (t *Table[T]) page(d uint64) []T {
	var p []T
	if n := len(t.free); n > 0 {
		p = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		p = make([]T, t.mask+1)
	}
	t.dir[d] = p
	t.used = append(t.used, int(d))
	return p
}

// Reset sets every entry back to the zero value. It zeroes only the
// pages in use and keeps them for later touches.
func (t *Table[T]) Reset() {
	for _, d := range t.used {
		p := t.dir[d]
		clear(p)
		t.free = append(t.free, p)
		t.dir[d] = nil
	}
	t.used = t.used[:0]
}
