package pagetable

import (
	"math/rand"
	"testing"

	"javmm/internal/mem"
)

func TestFrameAllocatorExhaustion(t *testing.T) {
	f := NewFrameAllocator(3)
	seen := map[mem.PFN]bool{}
	for i := 0; i < 3; i++ {
		p, err := f.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("frame %d allocated twice", p)
		}
		seen[p] = true
	}
	if _, err := f.Alloc(); err == nil {
		t.Fatal("Alloc succeeded with no free frames")
	}
	if f.Free() != 0 {
		t.Fatalf("Free() = %d, want 0", f.Free())
	}
}

func TestFrameAllocatorReleaseRecycles(t *testing.T) {
	f := NewFrameAllocator(2)
	p1, _ := f.Alloc()
	p2, _ := f.Alloc()
	f.Release(p1)
	p3, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("recycled frame %d, want %d", p3, p1)
	}
	_ = p2
}

func TestFrameAllocatorDoubleFreePanics(t *testing.T) {
	f := NewFrameAllocator(2)
	p, _ := f.Alloc()
	f.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Release(p)
}

func TestFrameAllocatorReserve(t *testing.T) {
	f := NewFrameAllocator(10)
	f.Reserve(0, 4)
	if f.Free() != 6 {
		t.Fatalf("Free() = %d after Reserve, want 6", f.Free())
	}
	for i := 0; i < 6; i++ {
		p, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if p < 4 {
			t.Fatalf("Alloc returned reserved frame %d", p)
		}
	}
}

func TestFrameAllocatorReserveConflictPanics(t *testing.T) {
	f := NewFrameAllocator(4)
	p, _ := f.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve over allocated frame did not panic")
		}
	}()
	f.Reserve(p, 1)
}

func TestFrameAllocatorAllocated(t *testing.T) {
	f := NewFrameAllocator(4)
	p, _ := f.Alloc()
	if !f.Allocated(p) {
		t.Fatal("Allocated = false for live frame")
	}
	f.Release(p)
	if f.Allocated(p) {
		t.Fatal("Allocated = true for freed frame")
	}
}

func TestAddressSpaceMapTranslateUnmap(t *testing.T) {
	f := NewFrameAllocator(16)
	a := NewAddressSpace(f)
	va := mem.VA(0x4000)
	p, _ := f.Alloc()
	a.Map(va, p)
	got, ok := a.Translate(va)
	if !ok || got != p {
		t.Fatalf("Translate = %d,%v, want %d,true", got, ok, p)
	}
	// Offsets within the page translate to the same frame.
	got, ok = a.Translate(va + 0xabc)
	if !ok || got != p {
		t.Fatalf("Translate mid-page = %d,%v", got, ok)
	}
	if a.Mapped() != 1 {
		t.Fatalf("Mapped = %d, want 1", a.Mapped())
	}
	if back := a.Unmap(va); back != p {
		t.Fatalf("Unmap returned %d, want %d", back, p)
	}
	if _, ok := a.Translate(va); ok {
		t.Fatal("Translate succeeded after Unmap")
	}
}

func TestAddressSpaceDoubleMapPanics(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	a.Map(0x1000, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Map did not panic")
		}
	}()
	a.Map(0x1000, 1)
}

func TestAddressSpaceUnmapUnmappedPanics(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Unmap of unmapped page did not panic")
		}
	}()
	a.Unmap(0x1000)
}

func TestAddressSpaceRemap(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	a.Map(0x1000, 2)
	old := a.Remap(0x1000, 3)
	if old != 2 {
		t.Fatalf("Remap returned %d, want 2", old)
	}
	got, _ := a.Translate(0x1000)
	if got != 3 {
		t.Fatalf("Translate after Remap = %d, want 3", got)
	}
}

func TestMapRangeUnmapRange(t *testing.T) {
	f := NewFrameAllocator(64)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000, End: 0x10000 + 8*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		t.Fatal(err)
	}
	if a.Mapped() != 8 {
		t.Fatalf("Mapped = %d, want 8", a.Mapped())
	}
	if f.Free() != 56 {
		t.Fatalf("Free = %d, want 56", f.Free())
	}
	if n := a.UnmapRange(r); n != 8 {
		t.Fatalf("UnmapRange freed %d, want 8", n)
	}
	if f.Free() != 64 {
		t.Fatalf("Free = %d after UnmapRange, want 64", f.Free())
	}
}

func TestMapRangeUnwindsOnExhaustion(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000, End: 0x10000 + 8*mem.PageSize}
	if err := a.MapRange(r); err == nil {
		t.Fatal("MapRange succeeded beyond available frames")
	}
	if f.Free() != 4 {
		t.Fatalf("Free = %d after failed MapRange, want 4 (unwound)", f.Free())
	}
	if a.Mapped() != 0 {
		t.Fatalf("Mapped = %d after failed MapRange, want 0", a.Mapped())
	}
}

func TestWalkVisitsMappedOnlyInOrder(t *testing.T) {
	f := NewFrameAllocator(64)
	a := NewAddressSpace(f)
	a.Map(0x2000, 10)
	a.Map(0x4000, 11)
	a.Map(0x9000, 12)
	var vas []mem.VA
	var pfns []mem.PFN
	a.Walk(mem.VARange{Start: 0x1000, End: 0xa000}, func(va mem.VA, p mem.PFN) {
		vas = append(vas, va)
		pfns = append(pfns, p)
	})
	wantVAs := []mem.VA{0x2000, 0x4000, 0x9000}
	if len(vas) != 3 {
		t.Fatalf("Walk visited %v", vas)
	}
	for i := range vas {
		if vas[i] != wantVAs[i] {
			t.Fatalf("Walk order %v, want %v", vas, wantVAs)
		}
	}
	if pfns[0] != 10 || pfns[1] != 11 || pfns[2] != 12 {
		t.Fatalf("Walk frames %v", pfns)
	}
}

func TestWalkAlignsRangeInward(t *testing.T) {
	f := NewFrameAllocator(8)
	a := NewAddressSpace(f)
	a.Map(0x1000, 1)
	a.Map(0x2000, 2)
	var visited []mem.VA
	// [0x1800,0x3000) aligns inward to [0x2000,0x3000): only page 0x2000.
	a.Walk(mem.VARange{Start: 0x1800, End: 0x3000}, func(va mem.VA, p mem.PFN) {
		visited = append(visited, va)
	})
	if len(visited) != 1 || visited[0] != 0x2000 {
		t.Fatalf("Walk visited %v, want [0x2000]", visited)
	}
	// [0x1800,0x2fff) aligns inward to empty: page 0x2000 is not wholly inside.
	visited = nil
	a.Walk(mem.VARange{Start: 0x1800, End: 0x2fff}, func(va mem.VA, p mem.PFN) {
		visited = append(visited, va)
	})
	if len(visited) != 0 {
		t.Fatalf("Walk over sub-page tail visited %v, want none", visited)
	}
}

func TestWalkStepsCounterAdvances(t *testing.T) {
	f := NewFrameAllocator(8)
	a := NewAddressSpace(f)
	a.Map(0x1000, 1)
	before := a.WalkSteps
	a.Walk(mem.VARange{Start: 0x0, End: 0x8000}, func(mem.VA, mem.PFN) {})
	// One step per page-table entry: the walk reads 8 leaf entries.
	if got := a.WalkSteps - before; got != 8 {
		t.Fatalf("WalkSteps advanced by %d, want 8", got)
	}
}

// Property: after any interleaving of MapRange/UnmapRange, frames held by
// mappings plus free frames equals the total, and Translate agrees with a
// shadow map.
func TestAddressSpaceRandomOpsConservation(t *testing.T) {
	const frames = 256
	rng := rand.New(rand.NewSource(7))
	f := NewFrameAllocator(frames)
	a := NewAddressSpace(f)
	shadow := map[mem.VA]mem.PFN{}
	for i := 0; i < 2000; i++ {
		va := mem.VA(rng.Intn(512)) * mem.PageSize
		if _, mapped := shadow[va]; mapped {
			if rng.Intn(2) == 0 {
				p := a.Unmap(va)
				if shadow[va] != p {
					t.Fatalf("Unmap(%#x) = %d, shadow %d", uint64(va), p, shadow[va])
				}
				f.Release(p)
				delete(shadow, va)
			} else {
				got, ok := a.Translate(va)
				if !ok || got != shadow[va] {
					t.Fatalf("Translate(%#x) = %d,%v, shadow %d", uint64(va), got, ok, shadow[va])
				}
			}
		} else if f.Free() > 0 {
			p, err := f.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			a.Map(va, p)
			shadow[va] = p
		}
		if a.Mapped() != uint64(len(shadow)) {
			t.Fatalf("Mapped = %d, shadow %d", a.Mapped(), len(shadow))
		}
		if f.Free()+a.Mapped() != frames {
			t.Fatalf("conservation violated: free %d + mapped %d != %d", f.Free(), a.Mapped(), frames)
		}
	}
}

// mapPages maps n pages from va to frames drawn from a.
func mapPages(t *testing.T, a *AddressSpace, va mem.VA, n uint64) {
	t.Helper()
	if err := a.MapRange(mem.VARange{Start: va, End: va + mem.VA(n*mem.PageSize)}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRunStopsAtLeafEndHoleAndCount(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(4096))
	base := mem.VA(0x40000000) // leaf-aligned
	mapPages(t, a, base, 1200)
	hole := base + 700*mem.PageSize
	a.frames.Release(a.Unmap(hole))

	check := func(va mem.VA, n uint64, want int) {
		t.Helper()
		run := a.LeafRun(va, n)
		if len(run) != want {
			t.Fatalf("LeafRun(%#x, %d) has %d frames, want %d", uint64(va), n, len(run), want)
		}
		for i, p := range run {
			if q, _ := a.Translate(va + mem.VA(i)*mem.PageSize); q != p {
				t.Fatalf("LeafRun(%#x)[%d] = %d, Translate says %d", uint64(va), i, p, q)
			}
		}
	}
	check(base+10*mem.PageSize, 5, 5)      // ends at n
	check(base+500*mem.PageSize, 100, 12)  // ends at the leaf boundary
	check(base+600*mem.PageSize, 400, 100) // ends before the hole
	check(hole, 10, 0)                     // starts on the hole
	check(base+1190*mem.PageSize, 100, 10) // ends before the unmapped tail
	check(base+1300*mem.PageSize, 1, 0)    // unmapped tail of a present leaf
	check(0xffffffffffff0000, 8, 0)        // far from every mapping
	check(base, 0, 0)                      // empty request

	before := a.WalkSteps
	a.LeafRun(base+600*mem.PageSize, 400) // 100 entries, then the hole
	if got := a.WalkSteps - before; got != 101 {
		t.Fatalf("LeafRun stopped by a hole took %d steps, want 101", got)
	}
}

func TestLeafRunAllocatesNothing(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(1024))
	mapPages(t, a, 0x40000000, 600)
	allocs := testing.AllocsPerRun(100, func() {
		a.LeafRun(0x40000000+100*mem.PageSize, 300)
		a.LeafRun(0x0, 1)
		a.LeafRun(0xffffffffffff0000, 1)
		a.Translate(0xffffffffffff0000)
	})
	if allocs != 0 {
		t.Fatalf("lookups allocated %v times per run, want 0", allocs)
	}
}

// The directory is a slice from the lowest to the highest mapped directory
// index: mapping below the base or past the top grows it, and lookups
// anywhere else find nothing.
func TestDirectoryGrowsBothWays(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(64))
	vas := []mem.VA{0x40000000, 0x40000000 + 5<<21, 0x40000000 - 3<<21, 0x40000000 + 1<<21 + 0x3000}
	for i, va := range vas {
		a.Map(va, mem.PFN(i))
	}
	for i, va := range vas {
		if p, ok := a.Translate(va); !ok || p != mem.PFN(i) {
			t.Fatalf("Translate(%#x) = %d,%v, want %d", uint64(va), p, ok, i)
		}
	}
	if len(a.dir) != 9 {
		t.Fatalf("directory spans %d leaves, want 9", len(a.dir))
	}
	for _, va := range []mem.VA{0x0, 0x40000000 - 4<<21, 0x40000000 + 6<<21, 0x40000000 + 2<<21, 0xfffffffffffff000} {
		if _, ok := a.Translate(va); ok {
			t.Fatalf("Translate(%#x) found a mapping", uint64(va))
		}
	}
	// Emptying a leaf drops its table; the slot maps again later.
	a.Unmap(vas[2])
	if _, ok := a.Translate(vas[2]); ok {
		t.Fatal("unmapped page still translates")
	}
	a.Map(vas[2], 9)
	if p, _ := a.Translate(vas[2]); p != 9 {
		t.Fatalf("remapped page translates to %d, want 9", p)
	}
}

// A walk or unmap over the whole address space reads only the leaf tables
// that exist; it never iterates the unmapped expanse page by page.
func TestWalkWholeAddressSpace(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(64))
	mapPages(t, a, 0x40000000+510*mem.PageSize, 4) // straddles two leaves
	all := mem.VARange{Start: 0, End: 0xfffffffffffff000}
	var got []mem.VA
	a.Walk(all, func(va mem.VA, _ mem.PFN) { got = append(got, va) })
	if len(got) != 4 || got[0] != 0x40000000+510*mem.PageSize || got[3] != 0x40000000+513*mem.PageSize {
		t.Fatalf("Walk visited %#x", got)
	}
	if n := a.UnmapRange(all); n != 4 || a.Mapped() != 0 {
		t.Fatalf("UnmapRange freed %d, %d still mapped", n, a.Mapped())
	}
	if a.frames.Free() != 64 {
		t.Fatalf("%d frames free after UnmapRange, want 64", a.frames.Free())
	}
}
