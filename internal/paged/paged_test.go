package paged

import (
	"testing"
	"unsafe"
)

// TestTableReadsWritesAndResets checks the table against a plain map:
// untouched entries read zero, writes land where they are addressed,
// and Reset returns every entry to zero.
func TestTableReadsWritesAndResets(t *testing.T) {
	var tab Table[uint64]
	const n = 1 << 20
	tab.Grow(n)
	if tab.Len() < n {
		t.Fatalf("Len %d after Grow(%d)", tab.Len(), n)
	}
	want := map[uint64]uint64{}
	for k := uint64(0); k < 3000; k++ {
		i := k * 7919 % n
		*tab.At(i) += k + 1
		want[i] += k + 1
	}
	for i, v := range want {
		if got := *tab.At(i); got != v {
			t.Fatalf("entry %d = %d, want %d", i, got, v)
		}
	}
	if got := *tab.At(n - 1); want[n-1] == 0 && got != 0 {
		t.Fatalf("untouched entry reads %d", got)
	}
	tab.Reset()
	if len(tab.used) != 0 {
		t.Fatalf("%d pages in use after Reset", len(tab.used))
	}
	for i := range want {
		if got := *tab.At(i); got != 0 {
			t.Fatalf("entry %d = %d after Reset", i, got)
		}
	}
}

// TestTablePageSize checks that pages hold PageBytes of entries and
// that the table allocates only the pages it touches.
func TestTablePageSize(t *testing.T) {
	var wide Table[uint64]
	var narrow Table[uint32]
	wide.Grow(1 << 24)
	narrow.Grow(1 << 24)
	if got := (wide.mask + 1) * uint64(unsafe.Sizeof(uint64(0))); got != PageBytes {
		t.Errorf("uint64 page holds %d bytes, want %d", got, PageBytes)
	}
	if got := (narrow.mask + 1) * uint64(unsafe.Sizeof(uint32(0))); got != PageBytes {
		t.Errorf("uint32 page holds %d bytes, want %d", got, PageBytes)
	}
	*wide.At(0) = 1
	*wide.At((wide.mask + 1) - 1) = 1
	*wide.At(1<<24 - 1) = 1
	if len(wide.used) != 2 {
		t.Errorf("3 writes on 2 pages allocated %d pages", len(wide.used))
	}
}

// TestTableReusesPages checks that a reset table serves the same
// number of touched pages again without allocating, and that Span
// views stay valid while other pages are touched.
func TestTableReusesPages(t *testing.T) {
	var tab Table[uint64]
	tab.Grow(1 << 24)
	touch := func(base uint64) {
		for k := uint64(0); k < 64; k++ {
			*tab.At(base + k*(tab.mask+1)) = k
		}
	}
	touch(0)
	tab.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		touch(1 << 20)
		tab.Reset()
	}); allocs != 0 {
		t.Fatalf("re-touching after Reset allocated %.1f objects", allocs)
	}
	view := tab.Span(3, 4)
	copy(view, []uint64{1, 2, 3, 4})
	touch(1 << 22)
	for k, v := range tab.Span(3, 4) {
		if v != uint64(k+1) || view[k] != v {
			t.Fatalf("span entry %d = %d (view %d), want %d", k, v, view[k], k+1)
		}
	}
	if cap(view) != 4 {
		t.Fatalf("span capacity %d, want 4", cap(view))
	}
}
