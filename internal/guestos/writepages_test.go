package guestos

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// runArea is a mapped range that starts mid-leaf, so runs through it cross
// page-table leaf boundaries (512 pages per leaf).
var runArea = mem.VARange{Start: 0x40000000 + 300*mem.PageSize, End: 0x40000000 + 3300*mem.PageSize}

// runGuest boots a guest with one process whose address space maps runArea
// without writing it.
func runGuest(t testing.TB) (*Guest, *Process) {
	t.Helper()
	dom := hypervisor.NewDomain("guest", simclock.New(), mem.NewVersionStore(8192), 2)
	g := NewGuest(dom, LKMConfig{Clock: dom.Clock()})
	p := g.NewProcess("app")
	if err := p.AS.MapRange(runArea); err != nil {
		t.Fatal(err)
	}
	return g, p
}

func sameBitmaps(a, b *mem.Bitmap) bool {
	if a.Len() != b.Len() {
		return false
	}
	for p := mem.PFN(0); uint64(p) < a.Len(); p++ {
		if a.Test(p) != b.Test(p) {
			return false
		}
	}
	return true
}

// requireSameDomains fails unless the two domains hold the same versions,
// dirty and epoch bitmaps, and write counters.
func requireSameDomains(t *testing.T, step string, a, b *hypervisor.Domain) {
	t.Helper()
	if a.Writes() != b.Writes() || a.DirtyEvents() != b.DirtyEvents() {
		t.Fatalf("%s: Writes %d/%d, DirtyEvents %d/%d", step, a.Writes(), b.Writes(), a.DirtyEvents(), b.DirtyEvents())
	}
	for p := mem.PFN(0); uint64(p) < a.NumPages(); p++ {
		if va, vb := a.Store().Version(p), b.Store().Version(p); va != vb {
			t.Fatalf("%s: page %d at version %d, twin at %d", step, p, va, vb)
		}
	}
	da, db := mem.NewBitmap(a.NumPages()), mem.NewBitmap(b.NumPages())
	a.Peek(da)
	b.Peek(db)
	if !sameBitmaps(da, db) {
		t.Fatalf("%s: dirty bitmaps differ", step)
	}
	ea, okA := a.DirtySince(a.DirtyEpoch())
	eb, okB := b.DirtySince(b.DirtyEpoch())
	if okA != okB || (okA && !sameBitmaps(ea, eb)) {
		t.Fatalf("%s: epoch bitmaps differ", step)
	}
}

// Property: writing random runs through Process.WritePages leaves the
// domain exactly as writing the same pages one at a time through
// Domain.WritePage does, with log-dirty off and on, an epoch armed and
// re-armed, and rounds cleared between batches.
func TestWritePagesMatchesPageByPage(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, p := runGuest(t)
	twin, tp := runGuest(t)
	areaPages := int(runArea.Pages())
	var issued, eventsAtRound uint64
	for batch := 0; batch < 24; batch++ {
		switch batch {
		case 4:
			for _, d := range []*hypervisor.Domain{g.Dom, twin.Dom} {
				if err := d.EnableLogDirty(); err != nil {
					t.Fatal(err)
				}
			}
		case 8, 16:
			g.Dom.BeginDirtyEpoch()
			twin.Dom.BeginDirtyEpoch()
		case 20:
			g.Dom.DisableLogDirty()
			twin.Dom.DisableLogDirty()
		}
		for i := 0; i < 12; i++ {
			start := rng.Intn(areaPages)
			n := 1 + rng.Intn(min(areaPages-start, 1200))
			va := runArea.Start + mem.VA(start)*mem.PageSize
			p.WritePages(va, uint64(n))
			issued += uint64(n)
			for k := 0; k < n; k++ {
				pfn, ok := tp.AS.Translate(va + mem.VA(k)*mem.PageSize)
				if !ok {
					t.Fatalf("twin lost the mapping at page %d", start+k)
				}
				twin.Dom.WritePage(pfn)
			}
		}
		step := fmt.Sprintf("batch %d", batch)
		requireSameDomains(t, step, g.Dom, twin.Dom)
		// Oracles that share no code with the write path: every issued
		// page is one write, and a round's dirty events are the pages
		// its log holds when it is cleared.
		if g.Dom.Writes() != issued {
			t.Fatalf("%s: Writes = %d, issued %d pages", step, g.Dom.Writes(), issued)
		}
		if g.Dom.LogDirtyEnabled() {
			da, db := mem.NewBitmap(g.Dom.NumPages()), mem.NewBitmap(twin.Dom.NumPages())
			na, nb := g.Dom.PeekAndClear(da), twin.Dom.PeekAndClear(db)
			if na != nb || !sameBitmaps(da, db) {
				t.Fatalf("%s: PeekAndClear returned %d and %d pages", step, na, nb)
			}
			if got := g.Dom.DirtyEvents() - eventsAtRound; got != na {
				t.Fatalf("%s: %d dirty events in a round that dirtied %d pages", step, got, na)
			}
		}
		eventsAtRound = g.Dom.DirtyEvents()
	}
	if g.Dom.Writes() == 0 || g.Dom.DirtyEvents() == 0 {
		t.Fatal("the property ran no writes")
	}
}

// With a post-copy fault hook installed, a run is applied page by page: the
// hook sees every page in ascending VA order, each before its own write and
// after the writes of the pages before it.
func TestWritePagesFaultHookOrder(t *testing.T) {
	g, p := runGuest(t)
	store := g.Dom.Store()
	var seen []mem.PFN
	g.Dom.SetPageFaultHook(func(pfn mem.PFN) {
		if v := store.Version(pfn); v != 0 {
			t.Fatalf("fault hook for page %d ran after its write (version %d)", pfn, v)
		}
		for _, q := range seen {
			if store.Version(q) != 1 {
				t.Fatalf("fault hook for page %d ran before the write of earlier page %d", pfn, q)
			}
		}
		seen = append(seen, pfn)
	})
	va, n := runArea.Start+200*mem.PageSize, uint64(700) // crosses a leaf boundary
	p.WritePages(va, n)
	if uint64(len(seen)) != n {
		t.Fatalf("hook fired %d times, want %d", len(seen), n)
	}
	for i, pfn := range seen {
		if want, _ := p.AS.Translate(va + mem.VA(i)*mem.PageSize); pfn != want {
			t.Fatalf("hook call %d saw page %d, want %d (ascending VA order)", i, pfn, want)
		}
	}
	if g.Dom.Writes() != n {
		t.Fatalf("Writes = %d, want %d", g.Dom.Writes(), n)
	}
}

// A run over an unmapped page segfaults at that page, after writing the
// pages before it and none after it.
func TestWritePagesSegfaultsMidRun(t *testing.T) {
	g, p := runGuest(t)
	hole := runArea.Start + 300*mem.PageSize
	g.Frames.Release(p.AS.Unmap(hole))
	va := runArea.Start + 100*mem.PageSize
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "segfault") || !strings.Contains(msg, fmt.Sprintf("%#x", uint64(hole))) {
				t.Fatalf("panic %q, want a segfault at %#x", msg, uint64(hole))
			}
		}()
		p.WritePages(va, 400)
	}()
	if g.Dom.Writes() != 200 {
		t.Fatalf("Writes = %d, want the 200 pages before the hole", g.Dom.Writes())
	}
	for i := uint64(0); i < 400; i++ {
		pfn, ok := p.AS.Translate(va + mem.VA(i)*mem.PageSize)
		if !ok {
			continue
		}
		want := uint64(0)
		if i < 200 {
			want = 1
		}
		if v := g.Dom.Store().Version(pfn); v != want {
			t.Fatalf("page %d of the run at version %d, want %d", i, v, want)
		}
	}
}

func TestWritePagesAllocatesNothing(t *testing.T) {
	g, p := runGuest(t)
	if err := g.Dom.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	g.Dom.BeginDirtyEpoch()
	va := runArea.Start + 400*mem.PageSize // 24 + 512 + 464 pages: three leaves
	allocs := testing.AllocsPerRun(50, func() { p.WritePages(va, 1000) })
	if allocs != 0 {
		t.Fatalf("a three-leaf WritePages allocated %v times, want 0", allocs)
	}
}

// BenchmarkProcessWritePages measures the guest write path on 1000-page
// runs with log-dirty and an epoch on; ns/op is per run.
func BenchmarkProcessWritePages(b *testing.B) {
	g, p := runGuest(b)
	if err := g.Dom.EnableLogDirty(); err != nil {
		b.Fatal(err)
	}
	g.Dom.BeginDirtyEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WritePages(runArea.Start+mem.VA(i%2000)*mem.PageSize, 1000)
	}
}

// BenchmarkProcessWrite is the same write stream issued one page at a time.
func BenchmarkProcessWrite(b *testing.B) {
	g, p := runGuest(b)
	if err := g.Dom.EnableLogDirty(); err != nil {
		b.Fatal(err)
	}
	g.Dom.BeginDirtyEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := runArea.Start + mem.VA(i%2000)*mem.PageSize
		for k := mem.VA(0); k < 1000; k++ {
			p.Write(va + k*mem.PageSize)
		}
	}
}
