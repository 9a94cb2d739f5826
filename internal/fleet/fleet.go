// Package fleet runs N live migrations concurrently on one deterministic
// virtual clock, contending for a shared network fabric.
//
// Each VM gets two cooperative scheduler processes: a guest process that
// keeps the workload executing (and dirtying memory) in small quanta, and an
// engine process that sleeps until its start time and then drives a full
// migration. Bulk transfers go through fabric ports, so concurrent engines
// split the backbone bandwidth under progressive fair-share arbitration;
// everything else — pre-copy rounds, the suspension handshake, stop-and-copy
// — interleaves through the scheduler at timer granularity. Same options,
// same result, bit for bit, regardless of goroutine scheduling (DESIGN.md
// §15).
package fleet

import (
	"fmt"
	"time"

	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/obs/attrib"
	"javmm/internal/obs/fleetobs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/sla"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// Options parameterizes a fleet run.
type Options struct {
	// Mode is the migration algorithm every engine runs.
	Mode migration.Mode
	// Profiles boots one VM per entry (VM i runs Profiles[i]).
	Profiles []workload.Profile
	// Seed is the base workload seed; VM i boots with Seed + i.
	Seed int64
	// MemBytes is the per-VM memory (default 2 GiB).
	MemBytes uint64

	// Bandwidth is the shared backbone's payload bandwidth in bytes/sec
	// (default gigabit-effective) and Latency its one-way latency (default
	// 100 µs). Every migration crosses this one link.
	Bandwidth uint64
	Latency   time.Duration
	// NICBandwidth, when non-zero, additionally caps each source host's NIC,
	// so a single engine cannot saturate the backbone even alone.
	NICBandwidth uint64

	// Warmup is how long the guests run before the first engine starts
	// (default 60 s); engine i starts at Warmup + i*Stagger.
	Warmup  time.Duration
	Stagger time.Duration
	// GuestQuantum is the guest processes' pause-check granularity
	// (default 1 ms, the workload driver's own tick).
	GuestQuantum time.Duration

	// Attach, when non-nil, runs once per booted VM (in boot order, before
	// any virtual time passes) to attach extra applications — e.g. a cache
	// app beside the JVM. The returned executor (typically a Multiplex of
	// the VM's driver and the app) replaces the bare workload driver in
	// that VM's guest process; returning nil keeps the driver.
	Attach func(i int, vm *workload.VM) (migration.GuestExecutor, error)

	// Engine overrides engine defaults; Mode above wins over Engine.Mode.
	Engine migration.Config
	// CollectMetrics attaches one obs registry — Run builds it on the
	// fleet's shared clock and returns it as Result.Metrics — to every VM,
	// engine, destination and the fabric. One registry serves the whole
	// fleet, so per-VM counters aggregate; the per-link fabric gauges
	// (fabric.<name>.*) stay distinguishable.
	CollectMetrics bool
	// Collect attaches the full fleet observability plane (fleetobs): each
	// VM gets its own tracer, metrics registry and provenance ledger wired
	// through every instrumented layer (engine, guest OS, JVM, workload
	// driver, destination, NIC port), the fabric records its flow spans and
	// per-link gauges into the collector's fleet lane and fleet registry,
	// and every engine's progress stream is captured per VM. The collector
	// comes back as Result.Obs. Collect supersedes CollectMetrics: the
	// legacy single shared registry (Result.Metrics) stays nil.
	Collect bool
	// OnProgress, when non-nil, receives every VM's live progress points —
	// phase transitions, iteration progress, pages/bytes remaining, ETA —
	// as the engines emit them. Delivery is in virtual-time order (the
	// cooperative scheduler serializes all emission), so a renderer can
	// drive a live fleet status line from it.
	OnProgress func(vm string, p migration.Progress)
	// SLA, when non-nil, prices each completed migration against the model
	// — downtime × penalty plus the throughput-dip integral over the VM's
	// sampled workload curve — and aggregates the fleet cost as Result.SLA.
	// Each per-VM cost is reconciled tick-for-tick against the run's
	// attribution before it is accepted.
	SLA *sla.Model
	// SkipVerify disables the per-VM post-migration consistency check.
	SkipVerify bool
}

func (o *Options) fillDefaults() error {
	if len(o.Profiles) == 0 {
		return fmt.Errorf("fleet: no profiles (nothing to migrate)")
	}
	if o.MemBytes == 0 {
		o.MemBytes = 2 << 30
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = netsim.GigabitEffective
	}
	if o.Latency == 0 {
		o.Latency = 100 * time.Microsecond
	}
	if o.Warmup == 0 {
		o.Warmup = 60 * time.Second
	}
	if o.GuestQuantum == 0 {
		o.GuestQuantum = time.Millisecond
	}
	return nil
}

// VMResult is one VM's migration outcome, mirroring the single-run Result.
type VMResult struct {
	// Name is the VM's domain name ("<profile>-<i>").
	Name   string
	Report *migration.Report
	// WorkloadDowntime is stop-and-copy plus resumption, plus — for an
	// effective app-assisted run — the enforced GC and final bitmap update.
	WorkloadDowntime time.Duration
	// EnforcedGC is the pre-suspension collection's duration (zero unless
	// app-assisted).
	EnforcedGC time.Duration
	// VerifyErr is the destination-consistency outcome, checked at the
	// engine's completion instant, before any other process resumes
	// dirtying this VM's memory.
	VerifyErr error
	// Err is the migration error, if the engine aborted.
	Err error
	// StartAt/EndAt are the engine's bounds on the shared clock.
	StartAt, EndAt time.Duration

	// Samples is the VM's per-second throughput curve over the whole run
	// (warmup through the last engine's completion) — the workload data the
	// SLA dip integral prices.
	Samples []workload.Sample
	// SLACost prices this VM's migration (set when Options.SLA and the
	// migration completed).
	SLACost *sla.Cost

	dest *migration.Destination
}

// Destination returns the destination image the VM migrated into.
func (r *VMResult) Destination() *migration.Destination { return r.dest }

// Result is a whole fleet run: per-VM outcomes in boot order plus the merged
// fabric accounting.
type Result struct {
	VMs    []VMResult
	Fabric netsim.FabricReport
	// MakeSpan is the virtual time from the first engine's start to the
	// last engine's completion — the fleet-level total migration time.
	MakeSpan time.Duration
	// Metrics is the fleet-wide registry (nil unless
	// Options.CollectMetrics).
	Metrics *obs.Metrics
	// Obs is the fleet observability collector: per-VM trace lanes, labeled
	// metrics, captured progress streams, the fabric lane (nil unless
	// Options.Collect).
	Obs *fleetobs.Collector
	// SLA is the fleet cost aggregate (nil unless Options.SLA).
	SLA *sla.FleetCost
}

// Run boots the fleet onto one clock, wires every engine through one shared
// fabric link, and drives all of it to completion under the cooperative
// scheduler. Engine failures land in the per-VM Err field; Run itself only
// errors on assembly problems.
func Run(opts Options) (*Result, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	n := len(opts.Profiles)
	clock := simclock.New()
	sched := simclock.NewScheduler(clock)
	var metrics *obs.Metrics
	if opts.CollectMetrics && !opts.Collect {
		metrics = obs.NewMetrics(clock)
	}
	var coll *fleetobs.Collector
	if opts.Collect {
		coll = fleetobs.New(clock)
		coll.OnProgress = opts.OnProgress
	}

	fabric := netsim.NewFabric(clock)
	if coll != nil {
		fabric.SetTracer(coll.FabricTracer())
		fabric.SetMetrics(coll.FleetMetrics())
	} else {
		fabric.SetMetrics(metrics)
	}
	hosts := make([]string, 0, n+1)
	for i := range opts.Profiles {
		h := fmt.Sprintf("src%d", i)
		fabric.AddHost(h, opts.NICBandwidth)
		hosts = append(hosts, h)
	}
	fabric.AddHost("dst", 0)
	fabric.AddLink("backbone", opts.Bandwidth, opts.Latency, append(hosts, "dst")...)

	vms := make([]*workload.VM, n)
	srcs := make([]*migration.Source, n)
	execs := make([]migration.GuestExecutor, n)
	for i, prof := range opts.Profiles {
		name := fmt.Sprintf("%s-%d", prof.Name, i)
		var plane *fleetobs.VMPlane
		if coll != nil {
			plane = coll.AttachVM(name)
		}
		vm, err := workload.Boot(workload.BootConfig{
			Name:     name,
			MemBytes: opts.MemBytes,
			Profile:  prof,
			Assisted: opts.Mode == migration.ModeAppAssisted,
			Seed:     opts.Seed + int64(i),
			Clock:    clock,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: booting VM %d: %w", i, err)
		}
		if plane != nil {
			vm.AttachObs(plane.Tracer, plane.Metrics)
		} else if metrics != nil {
			vm.AttachObs(nil, metrics)
		}
		execs[i] = vm.Driver
		if opts.Attach != nil {
			e, err := opts.Attach(i, vm)
			if err != nil {
				return nil, fmt.Errorf("fleet: attaching to VM %d: %w", i, err)
			}
			if e != nil {
				execs[i] = e
			}
		}
		port, err := fabric.Dial(hosts[i], "dst")
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		dest := migration.NewDestination(vm.Dom.NumPages())

		cfg := opts.Engine
		cfg.Mode = opts.Mode
		if plane != nil {
			port.SetMetrics(plane.Metrics)
			dest.SetMetrics(plane.Metrics)
			cfg.Tracer = plane.Tracer
			cfg.Metrics = plane.Metrics
			cfg.Ledger = plane.Ledger
		} else {
			port.SetMetrics(metrics)
			dest.SetMetrics(metrics)
			if metrics != nil {
				cfg.Metrics = metrics
			}
			if opts.OnProgress != nil {
				vmName := name
				cb := opts.OnProgress
				cfg.OnProgress = func(p migration.Progress) { cb(vmName, p) }
			}
		}
		guest := vm.Guest
		srcs[i] = &migration.Source{
			Dom:   vm.Dom,
			LKM:   guest.LKM,
			Link:  port,
			Clock: clock,
			// Exec stays nil: the engine's advance() falls through to
			// Clock.Advance, a cooperative sleep, and the VM's own guest
			// process executes the workload meanwhile.
			Dest: dest,
			Cfg:  cfg,
			GuestFree: func(p mem.PFN) bool {
				return !guest.Frames.Allocated(p)
			},
			HintFor: guest.LKM.HintFor,
		}
		vms[i] = vm
	}

	res := &Result{VMs: make([]VMResult, n)}
	for i := range res.VMs {
		res.VMs[i].Name = vms[i].Dom.Name()
		res.VMs[i].dest = srcs[i].Dest
	}

	remaining := n
	startGuests(sched, vms, execs, opts.GuestQuantum, &remaining)
	for i := range vms {
		i := i
		vm := vms[i]
		src := srcs[i]
		startAt := opts.Warmup + time.Duration(i)*opts.Stagger
		sched.Go(vm.Dom.Name()+"/engine", func() {
			defer func() { remaining-- }()
			if d := startAt - clock.Now(); d > 0 {
				clock.Advance(d)
			}
			r := &res.VMs[i]
			r.StartAt = clock.Now()
			report, err := src.Migrate()
			r.EndAt = clock.Now()
			r.Report = report
			if err != nil {
				r.Err = err
				return
			}
			r.Err = r.complete(vm, report, opts.SkipVerify)
		})
	}
	sched.Run()

	rs := make([]*VMResult, n)
	for i := range res.VMs {
		rs[i] = &res.VMs[i]
		rs[i].Samples = vms[i].Driver.Samples()
	}
	res.MakeSpan = makeSpan(rs)
	res.Fabric = fabric.Report()
	// Standing invariant, checked after every fleet run: fair-share
	// settling may not lose or invent bytes on any link.
	if err := res.Fabric.VerifyConservation(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	res.Metrics = metrics
	res.Obs = coll
	if opts.SLA != nil {
		res.SLA = priceSLA(*opts.SLA, rs, coll)
	}
	return res, nil
}

// The per-VM lifecycle Run and Orchestrate share: guest processes, the
// completion bookkeeping, the makespan and SLA pricing.

// startGuests starts one guest process per VM. Each keeps its executor
// running in quanta of q until the last engine completes (*remaining
// reaches zero), so late migrations see realistic load; while stop-and-copy
// or a post-copy pause has the domain frozen, it idles the quantum instead.
// Cooperative scheduling (one process active at a time, channel-handoff
// ordered) makes the shared counter race-free.
func startGuests(sched *simclock.Scheduler, vms []*workload.VM,
	execs []migration.GuestExecutor, q time.Duration, remaining *int) {
	clock := sched.Clock()
	for i, vm := range vms {
		vm, exec := vm, execs[i]
		sched.Go(vm.Dom.Name()+"/guest", func() {
			for *remaining > 0 {
				if vm.Dom.Paused() {
					clock.Advance(q)
				} else {
					exec.Run(q)
				}
			}
		})
	}
}

// complete is the bookkeeping of a migration the engine finished: the
// enforced GC, the workload downtime and — unless skipVerify, and only for
// pre-copy completions — the destination-consistency verify. It must run at
// the completion instant, while the engine process still holds the baton: no
// other process has run since the engine finished, so the source store is
// exactly what stop-and-copy shipped. It returns the workload's own failure
// if the guest died during the migration.
func (r *VMResult) complete(vm *workload.VM, report *migration.Report, skipVerify bool) error {
	if werr := vm.Driver.Err; werr != nil {
		return fmt.Errorf("fleet: workload failed during migration: %w", werr)
	}
	hist := vm.Heap.GCHistory()
	for j := len(hist) - 1; j >= 0; j-- {
		if st := hist[j]; st.Enforced {
			r.EnforcedGC = st.Duration
			break
		}
	}
	r.WorkloadDowntime = report.VMDowntime
	if report.EffectiveMode() == migration.ModeAppAssisted {
		r.WorkloadDowntime += r.EnforcedGC + report.FinalUpdate
	}
	if !skipVerify && report.PostCopy == nil {
		r.VerifyErr = migration.VerifyMigration(
			vm.Dom.Store(), r.dest.Store, report.FinalTransfer,
			vm.Guest.Frames.Allocated)
	}
	return nil
}

// makeSpan is the virtual time from the first engine start to the last
// engine completion. A result with no engine window (a move abandoned before
// its first attempt) does not count.
func makeSpan(rs []*VMResult) time.Duration {
	var first, last time.Duration
	started := false
	for _, r := range rs {
		if r.StartAt == 0 && r.EndAt == 0 {
			continue
		}
		if !started || r.StartAt < first {
			first = r.StartAt
			started = true
		}
		if r.EndAt > last {
			last = r.EndAt
		}
	}
	return last - first
}

// priceSLA attributes and prices every completed migration against model and
// returns the fleet aggregate. Each cost is reconciled tick-for-tick against
// its attribution before it is accepted; a result whose attribution or cost
// does not reconcile gets the mismatch as its Err and no cost. Result i's
// ledger is the collector's VM i plane, when one ran.
func priceSLA(model sla.Model, rs []*VMResult, coll *fleetobs.Collector) *sla.FleetCost {
	costs := make([]sla.Cost, 0, len(rs))
	for i, r := range rs {
		if r.Err != nil || r.Report == nil {
			continue
		}
		var led *ledger.Ledger
		if coll != nil {
			led = coll.VMs()[i].Ledger
		}
		a := attrib.Build(r.Report, r.EnforcedGC, led)
		if err := a.Reconcile(r.Report); err != nil {
			r.Err = fmt.Errorf("fleet: attribution for %s does not reconcile: %w", r.Name, err)
			continue
		}
		c := sla.Build(r.Name, model, a, r.Samples)
		if err := c.Reconcile(model, a, r.Samples); err != nil {
			r.Err = fmt.Errorf("fleet: SLA cost for %s does not reconcile: %w", r.Name, err)
			continue
		}
		r.SLACost = &c
		costs = append(costs, c)
	}
	f := sla.Aggregate(costs)
	return &f
}
