// Package pagetable implements the guest-side memory management the LKM
// depends on: a physical frame allocator for the VM's pseudo-physical memory
// and per-process address spaces with walkable page tables.
//
// The paper's framework bridges the semantic gap between applications (which
// speak virtual addresses) and the migration daemon (which speaks PFNs) by
// having the guest kernel perform page-table walks (§3.3.2). This package is
// that machinery. Translation fidelity matters: when a skip-over area shrinks
// because memory was deallocated, the PFNs leaving the area are no longer in
// the page tables (§3.3.4) — tests rely on that behaviour being real.
package pagetable

import (
	"fmt"

	"javmm/internal/mem"
)

// FrameAllocator hands out page frames of a VM's pseudo-physical memory.
//
// Fresh frames are issued in a deterministic golden-ratio permutation of the
// frame space rather than lowest-first: on real hardware the machine frames
// backing consecutively-allocated virtual pages are effectively uncorrelated
// with the migration daemon's ascending-PFN scan order, and that
// decorrelation is what gives pre-copy its "skip pages already re-dirtied
// this round" savings (paper Figure 9). Released frames are recycled LIFO,
// like a per-CPU free list.
type FrameAllocator struct {
	free    *mem.Bitmap // set bit = frame free
	numFree uint64
	total   uint64

	stride   uint64 // coprime with total: generates the permutation
	cursor   uint64 // next frame in the permutation walk
	recycled []mem.PFN
}

// NewFrameAllocator returns an allocator over frames [0, total). Reserved
// frames (e.g. guest kernel text) can be carved out with Reserve.
func NewFrameAllocator(total uint64) *FrameAllocator {
	f := &FrameAllocator{free: mem.NewBitmap(total), numFree: total, total: total}
	f.free.SetAll()
	// Golden-ratio stride, adjusted to be coprime with total so the walk
	// visits every frame exactly once per lap.
	f.stride = uint64(float64(total)*0.6180339887) | 1
	if f.stride == 0 {
		f.stride = 1
	}
	for gcd(f.stride, total) != 1 {
		f.stride += 2
	}
	return f
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Total returns the number of frames the allocator manages.
func (f *FrameAllocator) Total() uint64 { return f.total }

// Free returns the number of unallocated frames.
func (f *FrameAllocator) Free() uint64 { return f.numFree }

// Reserve marks the frame range [start, start+n) as allocated forever.
// It panics if any frame is already in use: reservations happen at boot.
func (f *FrameAllocator) Reserve(start mem.PFN, n uint64) {
	for p := start; p < start+mem.PFN(n); p++ {
		if !f.free.Test(p) {
			panic(fmt.Sprintf("pagetable: Reserve(%d,%d): frame %d already allocated", start, n, p))
		}
		f.free.Clear(p)
		f.numFree--
	}
}

// Alloc returns a free frame, or an error if memory is exhausted. Recycled
// frames are reused LIFO; otherwise the next free frame in the permutation
// sequence is issued.
func (f *FrameAllocator) Alloc() (mem.PFN, error) {
	if f.numFree == 0 {
		return mem.NoPFN, fmt.Errorf("pagetable: out of guest frames (%d total)", f.total)
	}
	for n := len(f.recycled); n > 0; n = len(f.recycled) {
		p := f.recycled[n-1]
		f.recycled = f.recycled[:n-1]
		if f.free.Test(p) { // may have been Reserved meanwhile
			f.free.Clear(p)
			f.numFree--
			return p, nil
		}
	}
	// Walk the permutation until a free frame turns up. Since numFree > 0
	// and the stride is coprime with total, at most `total` steps suffice.
	for i := uint64(0); i < f.total; i++ {
		p := mem.PFN(f.cursor)
		f.cursor = (f.cursor + f.stride) % f.total
		if f.free.Test(p) {
			f.free.Clear(p)
			f.numFree--
			return p, nil
		}
	}
	return mem.NoPFN, fmt.Errorf("pagetable: allocator inconsistency: numFree=%d but no free frame found", f.numFree)
}

// Release returns frame p to the free pool. Double-free panics: it is a
// kernel bug, not a recoverable condition.
func (f *FrameAllocator) Release(p mem.PFN) {
	if f.free.Test(p) {
		panic(fmt.Sprintf("pagetable: double free of frame %d", p))
	}
	f.free.Set(p)
	f.numFree++
	f.recycled = append(f.recycled, p)
}

// Allocated reports whether frame p is currently allocated.
func (f *FrameAllocator) Allocated(p mem.PFN) bool { return !f.free.Test(p) }

// AddressSpace is one process's virtual address space: a two-level page table
// mapping virtual page numbers to PFNs. Walks are real table traversals, and
// the WalkSteps counter lets experiments account for walk costs (the paper
// defers an alternative final-update design because full re-walks are slow,
// §3.3.4 — ablation X5 quantifies this).
type AddressSpace struct {
	frames *FrameAllocator
	// Two-level table: directory index = vpn >> dirShift. The directory is
	// a slice of leaf tables indexed from dirBase, the lowest directory
	// index ever mapped; it spans up to the highest one, and only Map grows
	// it. Leaves emptied by Unmap are dropped (nil), not shrunk away.
	dir     []*ptTable
	dirBase uint64
	mapped  uint64
	// WalkSteps counts page-table entries examined by Translate, LeafRun,
	// Walk and UnmapRange: one per leaf entry read, plus one per directory
	// entry found without a leaf table.
	WalkSteps uint64
}

const (
	dirShift  = 9 // 512 entries per leaf table, like x86-64 PTE pages
	leafMask  = (1 << dirShift) - 1
	leafSlots = 1 << dirShift
	leafEmpty = mem.NoPFN
)

type ptTable struct {
	entries [leafSlots]mem.PFN
	used    int
}

func newPTTable() *ptTable {
	t := &ptTable{}
	for i := range t.entries {
		t.entries[i] = leafEmpty
	}
	return t
}

// NewAddressSpace returns an empty address space drawing frames from frames.
func NewAddressSpace(frames *FrameAllocator) *AddressSpace {
	return &AddressSpace{frames: frames}
}

// Mapped returns the number of virtual pages currently mapped.
func (a *AddressSpace) Mapped() uint64 { return a.mapped }

// leaf returns the leaf table for directory index di, or nil. A directory
// index outside the slice (unmapped, or far from every mapping) allocates
// nothing: the unsigned difference wraps past len(a.dir) below dirBase.
func (a *AddressSpace) leaf(di uint64) *ptTable {
	if i := di - a.dirBase; i < uint64(len(a.dir)) {
		return a.dir[i]
	}
	return nil
}

// leafForMap returns the leaf table for directory index di, growing the
// directory and creating the table as needed.
func (a *AddressSpace) leafForMap(di uint64) *ptTable {
	switch {
	case len(a.dir) == 0:
		a.dir, a.dirBase = make([]*ptTable, 1), di
	case di < a.dirBase:
		grown := make([]*ptTable, a.dirBase-di+uint64(len(a.dir)))
		copy(grown[a.dirBase-di:], a.dir)
		a.dir, a.dirBase = grown, di
	case di-a.dirBase >= uint64(len(a.dir)):
		a.dir = append(a.dir, make([]*ptTable, di-a.dirBase+1-uint64(len(a.dir)))...)
	}
	t := a.dir[di-a.dirBase]
	if t == nil {
		t = newPTTable()
		a.dir[di-a.dirBase] = t
	}
	return t
}

// Map installs vpn→pfn for the page containing va. Mapping an already-mapped
// page panics; remapping must go through Remap so callers are explicit about
// the §3.3.4 case-(2) events they are simulating.
func (a *AddressSpace) Map(va mem.VA, p mem.PFN) {
	vpn := va.PageOf()
	t := a.leafForMap(vpn >> dirShift)
	if t.entries[vpn&leafMask] != leafEmpty {
		panic(fmt.Sprintf("pagetable: Map(%#x): page already mapped", uint64(va)))
	}
	t.entries[vpn&leafMask] = p
	t.used++
	a.mapped++
}

// Remap changes the frame backing va's page and returns the old frame.
// It panics if the page is unmapped.
func (a *AddressSpace) Remap(va mem.VA, p mem.PFN) mem.PFN {
	vpn := va.PageOf()
	t := a.leaf(vpn >> dirShift)
	if t == nil || t.entries[vpn&leafMask] == leafEmpty {
		panic(fmt.Sprintf("pagetable: Remap(%#x): page not mapped", uint64(va)))
	}
	old := t.entries[vpn&leafMask]
	t.entries[vpn&leafMask] = p
	return old
}

// Unmap removes the mapping for va's page and returns the frame it used.
// It panics if the page is unmapped.
func (a *AddressSpace) Unmap(va mem.VA) mem.PFN {
	vpn := va.PageOf()
	di := vpn >> dirShift
	t := a.leaf(di)
	if t == nil || t.entries[vpn&leafMask] == leafEmpty {
		panic(fmt.Sprintf("pagetable: Unmap(%#x): page not mapped", uint64(va)))
	}
	p := t.entries[vpn&leafMask]
	t.entries[vpn&leafMask] = leafEmpty
	t.used--
	if t.used == 0 {
		a.dir[di-a.dirBase] = nil
	}
	a.mapped--
	return p
}

// Translate returns the frame backing va, or (NoPFN, false) if unmapped.
func (a *AddressSpace) Translate(va mem.VA) (mem.PFN, bool) {
	a.WalkSteps++
	vpn := va.PageOf()
	t := a.leaf(vpn >> dirShift)
	if t == nil {
		return mem.NoPFN, false
	}
	p := t.entries[vpn&leafMask]
	if p == leafEmpty {
		return mem.NoPFN, false
	}
	return p, true
}

// LeafRun returns the frames backing up to n consecutive pages starting at
// the page containing va. The run is a view into the one leaf table that
// maps va, so it ends at n pages, at the end of that leaf (leafSlots pages)
// or just before the first unmapped page, whichever comes first; an empty
// run means va itself is unmapped. Nothing is copied or allocated. The view
// is read-only and valid until the next Map, Remap or Unmap.
func (a *AddressSpace) LeafRun(va mem.VA, n uint64) []mem.PFN {
	if n == 0 {
		return nil
	}
	vpn := va.PageOf()
	t := a.leaf(vpn >> dirShift)
	if t == nil {
		a.WalkSteps++
		return nil
	}
	lo := vpn & leafMask
	run := t.entries[lo:]
	if n < uint64(len(run)) {
		run = run[:n]
	}
	if t.used < leafSlots { // the leaf has holes: stop before the first
		for i, p := range run {
			if p == leafEmpty {
				run = run[:i]
				a.WalkSteps++
				break
			}
		}
	}
	a.WalkSteps += uint64(len(run))
	return run
}

// leaves calls fn, in ascending order, for every leaf table overlapping the
// virtual page range [first, end) (end > first), with the table, the page
// number of its slot 0 and the overlapping slots [lo, hi). Only directory
// entries inside the directory slice are visited; the rest hold no table.
// Each directory entry without a table costs one walk step; fn accounts for
// the leaf entries it reads.
func (a *AddressSpace) leaves(first, end uint64, fn func(t *ptTable, vpn0, lo, hi uint64)) {
	diFirst, diLast := first>>dirShift, (end-1)>>dirShift
	absent := diLast - diFirst + 1
	if len(a.dir) > 0 {
		from := max(diFirst, a.dirBase)
		to := min(diLast, a.dirBase+uint64(len(a.dir))-1)
		for di := from; di <= to; di++ {
			t := a.dir[di-a.dirBase]
			if t == nil {
				continue
			}
			absent--
			vpn0 := di << dirShift
			lo, hi := uint64(0), uint64(leafSlots)
			if di == diFirst {
				lo = first & leafMask
			}
			if di == diLast {
				hi = (end-1)&leafMask + 1
			}
			fn(t, vpn0, lo, hi)
		}
	}
	a.WalkSteps += absent
}

// Walk visits every mapped page in the page-aligned range r in ascending VA
// order, calling fn with the page's base VA and frame. This is the LKM's
// page-table walk (§3.3.2): unmapped pages in the range are silently skipped,
// exactly as a real walk finds no PTE. The walk reads one leaf table at a
// time.
func (a *AddressSpace) Walk(r mem.VARange, fn func(va mem.VA, p mem.PFN)) {
	r = r.PageAlignInward()
	if r.Empty() {
		return
	}
	a.leaves(r.Start.PageOf(), r.End.PageOf(), func(t *ptTable, vpn0, lo, hi uint64) {
		a.WalkSteps += hi - lo
		for i := lo; i < hi; i++ {
			if p := t.entries[i]; p != leafEmpty {
				fn(mem.VA((vpn0+i)<<mem.PageShift), p)
			}
		}
	})
}

// MapRange allocates fresh frames for every page of the page-aligned range r.
// On allocation failure it unwinds its own mappings and returns the error.
func (a *AddressSpace) MapRange(r mem.VARange) error {
	r = r.PageAlignInward()
	var done []mem.VA
	for va := r.Start; va < r.End; va += mem.PageSize {
		p, err := a.frames.Alloc()
		if err != nil {
			for _, d := range done {
				a.frames.Release(a.Unmap(d))
			}
			return fmt.Errorf("pagetable: MapRange(%v): %w", r, err)
		}
		a.Map(va, p)
		done = append(done, va)
	}
	return nil
}

// UnmapRange unmaps every mapped page in the page-aligned range r and
// releases the frames. It returns the number of pages freed. This is the
// §3.3.4 deallocation path: after UnmapRange, the PFNs that backed the range
// can no longer be found by page-table walks.
func (a *AddressSpace) UnmapRange(r mem.VARange) uint64 {
	r = r.PageAlignInward()
	if r.Empty() {
		return 0
	}
	var n uint64
	a.leaves(r.Start.PageOf(), r.End.PageOf(), func(t *ptTable, vpn0, lo, hi uint64) {
		a.WalkSteps += hi - lo
		for i := lo; i < hi; i++ {
			if p := t.entries[i]; p != leafEmpty {
				t.entries[i] = leafEmpty
				t.used--
				a.mapped--
				a.frames.Release(p)
				n++
			}
		}
		if t.used == 0 {
			a.dir[vpn0>>dirShift-a.dirBase] = nil
		}
	})
	return n
}
