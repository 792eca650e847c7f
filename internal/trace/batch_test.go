package trace

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestFillMatchesNext verifies the batched producer is bit-identical
// to per-op pulls: same op sequence, same Progress accounting, same
// stopping point at the instruction limit, across buffer sizes that do
// and do not divide the stream.
func TestFillMatchesNext(t *testing.T) {
	for _, bufLen := range []int{1, 7, 64, 1024} {
		for _, name := range []string{"gcc", "milc", "povray"} {
			p, _ := ProfileByName(name)
			const limit = 200_000
			ref := NewGenerator(p)
			var want []Op
			for ref.Instructions < limit {
				want = append(want, ref.Next())
			}

			g := NewGenerator(p)
			buf := make([]Op, bufLen)
			var got []Op
			for {
				n := g.Fill(buf, limit)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s buf=%d: %d ops batched, %d per-op", name, bufLen, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s buf=%d: op %d = %+v, want %+v", name, bufLen, i, got[i], want[i])
				}
			}
			if g.Instructions != ref.Instructions || g.Stores != ref.Stores ||
				g.Emitted != ref.Emitted {
				t.Fatalf("%s buf=%d: counters diverge (instr %d/%d stores %d/%d emitted %d/%d)",
					name, bufLen, g.Instructions, ref.Instructions,
					g.Stores, ref.Stores, g.Emitted, ref.Emitted)
			}
		}
	}
}

// TestFillStopsAtLimit pins the boundary behaviour Fill documents:
// nothing is produced once Progress has reached the limit.
func TestFillStopsAtLimit(t *testing.T) {
	p, _ := ProfileByName("gcc")
	g := NewGenerator(p)
	buf := make([]Op, 256)
	for g.Fill(buf, 50_000) > 0 {
	}
	if g.Instructions < 50_000 {
		t.Fatalf("drained generator below the limit: %d", g.Instructions)
	}
	if n := g.Fill(buf, 50_000); n != 0 {
		t.Fatalf("Fill past the limit produced %d ops", n)
	}
	// A raised limit resumes exactly where the stream stopped.
	before := g.Emitted
	if n := g.Fill(buf[:1], 60_000); n != 1 || g.Emitted != before+1 {
		t.Fatalf("Fill with a raised limit produced %d ops (emitted %d -> %d)",
			n, before, g.Emitted)
	}
}

// TestGeneratorSteadyStateAllocs guards the generator hot path: batch
// production must not allocate.
func TestGeneratorSteadyStateAllocs(t *testing.T) {
	p, _ := ProfileByName("gcc")
	g := NewGenerator(p)
	buf := make([]Op, 512)
	g.Fill(buf, 1<<40) // warm
	allocs := testing.AllocsPerRun(50, func() {
		g.Fill(buf, 1<<40)
	})
	if allocs != 0 {
		t.Fatalf("Fill allocated %.1f objects/op in steady state", allocs)
	}
}

// BenchmarkTraceGen measures op production per-op vs batched.
func BenchmarkTraceGen(b *testing.B) {
	p, _ := ProfileByName("gcc")
	b.Run("next", func(b *testing.B) {
		g := NewGenerator(p)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Next()
		}
	})
	b.Run("fill", func(b *testing.B) {
		g := NewGenerator(p)
		buf := make([]Op, 1024)
		b.ReportAllocs()
		n := 0
		for n < b.N {
			n += g.Fill(buf, 1<<62)
		}
	})
}

// TestBatchBytesMatchesAllocation pins that Op packs into 16 bytes,
// that MaterializeBatch allocates its op slice once (no append
// doubling), and that Batch.Bytes reports that slice: a 2M-instruction
// batch's whole allocation is within a few KB (the generator) of
// Bytes.
func TestBatchBytesMatchesAllocation(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 16 {
		t.Fatalf("Op is %d bytes, want 16", got)
	}
	p, _ := ProfileByName("gcc")
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := MaterializeBatch(p, 2_000_000)
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	if b.Ops() > cap(b.ops) || cap(b.ops) > b.Ops()+b.Ops()/50+64 {
		t.Fatalf("op slice holds %d ops in capacity %d", b.Ops(), cap(b.ops))
	}
	if diff := alloc - int64(b.Bytes()); diff < 0 || diff > 32<<10 {
		t.Fatalf("materializing allocated %d bytes, Bytes() reports %d", alloc, b.Bytes())
	}
}
