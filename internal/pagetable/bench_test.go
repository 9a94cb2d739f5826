package pagetable

import (
	"testing"

	"javmm/internal/mem"
)

func BenchmarkFrameAllocReleaseCycle(b *testing.B) {
	f := NewFrameAllocator(1 << 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := f.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		f.Release(p)
	}
}

func BenchmarkAddressSpaceTranslate(b *testing.B) {
	f := NewFrameAllocator(1 << 18)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<17)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := r.Start + mem.VA((uint64(i)&(1<<17-1))*mem.PageSize)
		if _, ok := a.Translate(va); !ok {
			b.Fatal("unmapped")
		}
	}
}

// BenchmarkAddressSpaceWalk measures the LKM's first-bitmap-update walk over
// a 1 GiB skip-over area.
func BenchmarkAddressSpaceWalk(b *testing.B) {
	f := NewFrameAllocator(1 << 19)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<18)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		a.Walk(r, func(mem.VA, mem.PFN) { n++ })
		if n != 1<<18 {
			b.Fatal("walk incomplete")
		}
	}
}

// BenchmarkAddressSpaceLeafRun measures translating a 1 GiB mapping one
// leaf table (512 pages) at a time; ns/op is per leaf.
func BenchmarkAddressSpaceLeafRun(b *testing.B) {
	f := NewFrameAllocator(1 << 19)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<18)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := r.Start + mem.VA((uint64(i)&(1<<9-1))*leafSlots*mem.PageSize)
		if len(a.LeafRun(va, leafSlots)) != leafSlots {
			b.Fatal("short run")
		}
	}
}
