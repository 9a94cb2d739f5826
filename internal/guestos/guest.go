package guestos

import (
	"fmt"

	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/pagetable"
)

// Guest ties a hypervisor domain to its in-guest operating system state: the
// physical frame allocator, the process table, the netlink bus and the LKM.
// It is the "Linux 3.1 guest" of the paper's prototype (§3.3).
type Guest struct {
	Dom    *hypervisor.Domain
	Frames *pagetable.FrameAllocator
	Bus    *Bus
	LKM    *LKM

	procs []*Process
}

// KernelReservedPages is the number of frames carved out at boot for the
// guest kernel image and static data. These pages are mapped and occasionally
// dirtied but never belong to any skip-over area.
const KernelReservedPages = 4096 // 16 MiB

// NewGuest boots a guest OS inside dom: reserves kernel frames, creates the
// netlink bus and loads the LKM with the given configuration.
func NewGuest(dom *hypervisor.Domain, cfg LKMConfig) *Guest {
	frames := pagetable.NewFrameAllocator(dom.NumPages())
	if dom.NumPages() > KernelReservedPages {
		frames.Reserve(0, KernelReservedPages)
	}
	g := &Guest{
		Dom:    dom,
		Frames: frames,
		Bus:    NewBus(),
	}
	g.LKM = loadLKM(g, cfg)
	return g
}

// NewProcess creates a process with an empty address space.
func (g *Guest) NewProcess(name string) *Process {
	p := &Process{
		guest: g,
		AS:    pagetable.NewAddressSpace(g.Frames),
		name:  name,
	}
	g.procs = append(g.procs, p)
	return p
}

// Processes returns the process table.
func (g *Guest) Processes() []*Process { return g.procs }

// DirtyKernelPage models background kernel activity dirtying reserved frame
// i (timers, slab, network buffers). These writes keep vanilla migration
// honest: even an idle guest never converges to zero dirty pages.
func (g *Guest) DirtyKernelPage(i uint64) {
	if i >= KernelReservedPages || i >= g.Dom.NumPages() {
		panic(fmt.Sprintf("guestos: DirtyKernelPage(%d) outside kernel reservation", i))
	}
	g.Dom.WritePage(mem.PFN(i))
}

// Process is a user process in the guest: a named address space whose writes
// flow through the domain so log-dirty tracking observes them.
type Process struct {
	guest *Guest
	AS    *pagetable.AddressSpace
	name  string
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Guest returns the owning guest.
func (p *Process) Guest() *Guest { return p.guest }

// Alloc maps fresh physical frames behind the page-aligned VA range r, like
// mmap(MAP_ANONYMOUS) with every page touched. As a real kernel does, each
// frame is zeroed before the process sees it — which is also what keeps
// migration honest when frames recycle out of skip-over areas: the zeroing
// write dirties the page, so its (new) content reaches the destination
// instead of whatever the frame held while it was skippable.
func (p *Process) Alloc(r mem.VARange) error {
	if err := p.AS.MapRange(r); err != nil {
		return err
	}
	p.WriteRange(r)
	return nil
}

// Free unmaps the page-aligned VA range r and releases its frames, like
// munmap. It returns the number of pages freed. After Free, walks over r
// find nothing — the §3.3.4 property the PFN cache exists for.
func (p *Process) Free(r mem.VARange) uint64 {
	return p.AS.UnmapRange(r)
}

// WritePages stores to n consecutive pages starting at the page containing
// va. The run is translated one page-table leaf at a time, and each leaf's
// frames reach the domain as one run. An unmapped page panics (a segfault
// would crash the workload; in the simulator it is always a bug) after the
// pages before it have been written, as n single-page stores would.
func (p *Process) WritePages(va mem.VA, n uint64) {
	va = va.PageBase()
	for n > 0 {
		run := p.AS.LeafRun(va, n)
		if len(run) == 0 {
			panic(fmt.Sprintf("guestos: process %q segfault at %#x", p.name, uint64(va)))
		}
		p.guest.Dom.WritePages(run)
		va += mem.VA(len(run)) * mem.PageSize
		n -= uint64(len(run))
	}
}

// Write stores to the page containing va: the one-page case of WritePages.
func (p *Process) Write(va mem.VA) { p.WritePages(va, 1) }

// WriteRange stores to every whole page of r (aligned inward). It returns
// the number of pages written.
func (p *Process) WriteRange(r mem.VARange) uint64 {
	r = r.PageAlignInward()
	n := r.Pages()
	p.WritePages(r.Start, n)
	return n
}
