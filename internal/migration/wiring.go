package migration

import (
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/netsim"
)

// NewSource wires a migration of guest g over link into dest: the one
// assembly every caller shares. The domain, LKM and clock come from the
// guest, and so do GuestFree (its frame allocator) and HintFor (its LKM), so
// Cfg.SkipFreePages and Cfg.HintedCompression take effect. cfg.Metrics is
// attached to the link and the destination; cfg.Faults to the destination,
// the LKM, the netlink bus and — unless the link is a fabric port, whose
// faults belong to its fabric — the link. A nil cfg.Faults detaches whatever
// injector an earlier run left on those layers. exec may be nil when the
// guest's workload runs in a process of its own.
func NewSource(g *guestos.Guest, link *netsim.Link, dest *Destination, exec GuestExecutor, cfg Config) *Source {
	s := &Source{
		Dom:   g.Dom,
		LKM:   g.LKM,
		Clock: g.Dom.Clock(),
		Exec:  exec,
		Cfg:   cfg,
		GuestFree: func(p mem.PFN) bool {
			return !g.Frames.Allocated(p)
		},
		HintFor: g.LKM.HintFor,
		guest:   g,
	}
	s.Retarget(link, dest)
	g.LKM.SetFaults(cfg.Faults)
	g.Bus.SetFaults(cfg.Faults)
	return s
}

// Retarget points the source at a new link and destination (a relocation),
// wiring both exactly as NewSource does.
func (s *Source) Retarget(link *netsim.Link, dest *Destination) {
	s.Link, s.Dest = link, dest
	link.SetMetrics(s.Cfg.Metrics)
	dest.SetMetrics(s.Cfg.Metrics)
	dest.SetFaults(s.Cfg.Faults)
	if !link.Arbitrated() {
		link.SetFaults(s.Cfg.Faults)
	}
}

// DetachFaults undoes the fault wiring of NewSource and Retarget — Cfg, the
// destination, the link, the LKM and the netlink bus — so the next Migrate
// or Resume runs fault-free. Like Verify, it needs a Source from NewSource.
func (s *Source) DetachFaults() {
	s.Cfg.Faults = nil
	s.Dest.SetFaults(nil)
	if !s.Link.Arbitrated() {
		s.Link.SetFaults(nil)
	}
	s.LKM.SetFaults(nil)
	s.guest.Bus.SetFaults(nil)
}

// Verify checks a completed run's destination image with VerifyMigration
// over the guest's allocated frames, narrowed further by required when it is
// non-nil. A report with a post-copy phase verifies nothing: after switchover
// the guest keeps dirtying pages while the remainder streams over, and the
// demand-fetch path guarantees residency by construction.
func (s *Source) Verify(rep *Report, required func(mem.PFN) bool) error {
	if rep.PostCopy != nil {
		return nil
	}
	frames := s.guest.Frames
	pred := frames.Allocated
	if required != nil {
		pred = func(p mem.PFN) bool { return frames.Allocated(p) && required(p) }
	}
	return VerifyMigration(s.Dom.Store(), s.Dest.Store, rep.FinalTransfer, pred)
}

// WorkloadDowntime is the application-visible downtime of a run (paper
// §5.3): the VM-paused window (stop-and-copy and resumption), plus — when the
// run completed with assisted semantics — the enforced GC, which took
// enforcedGC, and the final bitmap update, during which the application's
// threads are paused. It keys on the EFFECTIVE mode: a run degraded to
// vanilla pre-copy never performed the final update and charges neither
// assisted component.
func WorkloadDowntime(r *Report, enforcedGC time.Duration) time.Duration {
	d := r.VMDowntime
	if r.EffectiveMode() == ModeAppAssisted {
		d += enforcedGC + r.FinalUpdate
	}
	return d
}
