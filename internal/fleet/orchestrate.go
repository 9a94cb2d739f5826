package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs/fleetobs"
	"javmm/internal/obs/sla"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// The orchestrator: executes a compiled batch plan on a cluster under one
// of three launch orderings. Everything — guests, engines and the
// orchestrator's own decision loop — runs as cooperative processes on one
// virtual clock, so a whole plan replays bit-identically at the same seed.

// Ordering selects the orchestrator's launch policy.
type Ordering int

// Launch orderings, from dumbest to smartest.
const (
	// OrderNaive launches every migration at once (warmup instant), with
	// no admission control: the baseline real clusters melt under.
	OrderNaive Ordering = iota
	// OrderAdmission launches FIFO behind the admission policy's per-link
	// and per-host caps.
	OrderAdmission
	// OrderCycleAware adds workload-cycle timing on top of admission:
	// each VM launches inside its quiet window, launches predicted (or
	// observed) not to converge are deferred, and every deferral is
	// bounded by QuietHorizon so nothing starves.
	OrderCycleAware
)

// String names the ordering for CLI flags and experiment tables.
func (o Ordering) String() string {
	switch o {
	case OrderNaive:
		return "naive"
	case OrderAdmission:
		return "admission"
	case OrderCycleAware:
		return "cycle-aware"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// ParseOrdering is String's inverse.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "naive":
		return OrderNaive, nil
	case "admission":
		return OrderAdmission, nil
	case "cycle-aware", "cycle":
		return OrderCycleAware, nil
	}
	return 0, fmt.Errorf("fleet: unknown ordering %q (want naive, admission or cycle-aware)", s)
}

// OrchestratorOptions parameterizes one plan execution.
type OrchestratorOptions struct {
	// Cluster is the declared topology; Plan the batch plan to compile
	// against it. Moves, when non-empty, bypasses Plan compilation.
	Cluster *Cluster
	Plan    *Plan
	Moves   []Move

	// Mode is the migration algorithm every engine runs.
	Mode migration.Mode
	// Seed is the base workload seed; move i boots with Seed + i.
	Seed int64
	// Ordering selects the launch policy (default OrderCycleAware).
	Ordering Ordering
	// Admission bounds concurrency for OrderAdmission and OrderCycleAware;
	// OrderNaive ignores it.
	Admission AdmissionPolicy
	// Retry sets each move's launch budget. Enabled, failed moves are retried
	// (token-reusing) or relocated under attempt/deadline budgets and a
	// per-host circuit breaker; disabled, every move gets one attempt.
	Retry RetryPolicy

	// Warmup is how long the guests run before the orchestrator makes its
	// first launch decision (default 60 s).
	Warmup time.Duration
	// DecisionQuantum is the orchestrator's deterministic decision tick
	// (default 500 ms): deferred launches are reconsidered at this period.
	DecisionQuantum time.Duration
	// QuietHorizon bounds every cycle-aware deferral: a move that has
	// waited this long launches at the next admissible tick regardless of
	// quiet windows or convergence predictions (default 5 min).
	QuietHorizon time.Duration
	// GuestQuantum is the guest processes' pause-check granularity
	// (default 1 ms).
	GuestQuantum time.Duration

	// Engine overrides engine defaults; Mode above wins over Engine.Mode.
	Engine migration.Config
	// Faults, when non-nil, attaches the fault-injection plane to every
	// shared link, engine, destination, LKM and bus — the chaos runner's
	// hook into batch plans.
	Faults *faults.Injector
	// FaultPlan, when Faults is nil, is materialized into an injector on the
	// plan's own clock (the clock does not exist before Orchestrate runs, so
	// callers cannot build timed injectors themselves).
	FaultPlan faults.Plan
	// Collect attaches the full fleet observability plane (Result.Obs).
	Collect bool
	// OnProgress receives every VM's live progress points.
	OnProgress func(vm string, p migration.Progress)
	// SLA, when non-nil, prices each completed migration and aggregates
	// the fleet cost — the objective the cycle-aware ordering minimizes.
	SLA *sla.Model
	// SkipVerify disables the per-VM post-migration consistency check.
	SkipVerify bool
}

func (o *OrchestratorOptions) fillDefaults() error {
	if o.Cluster == nil {
		return fmt.Errorf("fleet: orchestrate: no cluster")
	}
	if err := o.Cluster.Validate(); err != nil {
		return err
	}
	if o.Warmup == 0 {
		o.Warmup = 60 * time.Second
	}
	if o.DecisionQuantum == 0 {
		o.DecisionQuantum = 500 * time.Millisecond
	}
	if o.QuietHorizon == 0 {
		o.QuietHorizon = 5 * time.Minute
	}
	if o.GuestQuantum == 0 {
		o.GuestQuantum = time.Millisecond
	}
	o.Retry.fillDefaults()
	return nil
}

// MoveResult is one executed (or still-deferred-at-abort) move: the VM's
// migration outcome plus the orchestrator's scheduling record.
type MoveResult struct {
	VMResult
	// From/To are the move's source and destination hosts; Route the
	// shared links the flow crossed.
	From, To string
	Route    []string

	// EligibleAt is when the move entered the launch queue (the warmup
	// instant); LaunchedAt when the orchestrator granted it.
	EligibleAt, LaunchedAt time.Duration
	// Deferrals counts decision ticks at which the orchestrator
	// considered and declined the launch.
	Deferrals int
	// QuietLaunch reports a launch inside the VM's quiet window; Forced a
	// bounded-wait launch after QuietHorizon overrode the cycle logic.
	QuietLaunch, Forced bool

	// Outcome is the move's terminal classification; Attempts the per-launch
	// record, one entry for every launch the orchestrator granted.
	Outcome  MoveOutcome
	Attempts []Attempt
	// Relocations counts destination re-selections; HealBackoff total
	// healing backoff time; TokenSavedBytes wire bytes token reuse avoided
	// resending across all attempts.
	Relocations     int
	HealBackoff     time.Duration
	TokenSavedBytes uint64

	src   *migration.Source
	guest frameChecker
}

type frameChecker interface {
	Allocated(mem.PFN) bool
}

// SourceRunning reports whether the move's source VM is executing (not
// paused) — the "failed moves leave their source cleanly resumed" healing
// invariant. True also for moves that never launched: the source never
// stopped.
func (m *MoveResult) SourceRunning() bool {
	return m.src == nil || !m.src.Dom.Paused()
}

// PlanResult is a whole executed plan.
type PlanResult struct {
	// Ordering the plan ran under.
	Ordering Ordering
	// Moves are the per-move outcomes in compiled plan order.
	Moves []MoveResult
	// Fabric is the merged link/flow accounting; its byte conservation is
	// verified before Orchestrate returns.
	Fabric netsim.FabricReport
	// MakeSpan is first launch to last completion.
	MakeSpan time.Duration
	// Obs is the fleet observability collector (nil unless Collect).
	Obs *fleetobs.Collector
	// SLA is the fleet cost aggregate (nil unless Options.SLA).
	SLA *sla.FleetCost

	clock     *simclock.Clock
	fabric    *netsim.Fabric
	linkNames []string
	faults    *faults.Injector
	heal      *healState
}

// detachFaults removes the fault plane from every layer, so a resumed
// migration runs fault-free.
func (r *PlanResult) detachFaults() {
	if r.faults == nil {
		return
	}
	for _, l := range r.linkNames {
		r.fabric.SetLinkFaults(l, nil)
	}
	r.fabric.SetHostFaults(nil)
	for i := range r.Moves {
		m := &r.Moves[i]
		if m.src == nil {
			continue
		}
		m.src.Dest.SetFaults(nil)
		m.src.LKM.SetFaults(nil)
	}
	r.faults = nil
}

// ResumeAborted resumes move i's aborted migration from its recovery token
// with the fault plane detached, then verifies the destination image (for
// pre-copy completions). The guests are no longer executing — the plan's
// scheduler has drained — so the resume drives the clock directly, exactly
// like a post-abort operator retry.
func (r *PlanResult) ResumeAborted(i int) (*migration.Report, error) {
	if i < 0 || i >= len(r.Moves) {
		return nil, fmt.Errorf("fleet: resume: no move %d", i)
	}
	m := &r.Moves[i]
	if m.Report == nil || m.Report.Recovery == nil || m.Report.Recovery.Token == nil {
		return nil, fmt.Errorf("fleet: resume: move %d (%s) has no resume token", i, m.Name)
	}
	r.detachFaults()
	cfg := m.src.Cfg
	cfg.Faults = nil
	cfg.Ledger = nil
	re := &migration.Source{
		Dom: m.src.Dom, LKM: m.src.LKM, Link: m.src.Link, Clock: r.clock,
		Dest: m.src.Dest, Cfg: cfg,
	}
	rep, err := re.Resume(m.Report.Recovery.Token)
	if err != nil {
		return rep, fmt.Errorf("fleet: resume of %s failed: %w", m.Name, err)
	}
	if rep.PostCopy == nil {
		if verr := migration.VerifyMigration(
			m.src.Dom.Store(), m.src.Dest.Store, rep.FinalTransfer,
			m.guest.Allocated); verr != nil {
			return rep, fmt.Errorf("fleet: resumed %s but image diverged: %w", m.Name, verr)
		}
	}
	return rep, nil
}

// Orchestrate executes a batch plan: compiles it against the cluster,
// boots the moving VMs onto one shared clock and fabric, and launches each
// migration according to the ordering. The returned PlanResult carries
// per-move outcomes, scheduling records, fabric accounting (byte
// conservation verified) and the SLA aggregate.
func Orchestrate(opts OrchestratorOptions) (*PlanResult, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	moves := opts.Moves
	if len(moves) == 0 && opts.Plan != nil {
		var err error
		if moves, err = opts.Plan.Compile(opts.Cluster); err != nil {
			return nil, err
		}
	}
	n := len(moves)
	heal := newHealState(opts.Retry, n, opts.Warmup)
	res := &PlanResult{Ordering: opts.Ordering, faults: opts.Faults, heal: heal}
	if n == 0 {
		// An empty plan is a successful no-op: nothing to boot, nothing to
		// move, empty accounting.
		return res, nil
	}

	clock := simclock.New()
	if opts.Faults == nil && len(opts.FaultPlan) > 0 {
		inj, err := faults.NewInjector(clock, opts.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault plan: %w", err)
		}
		opts.Faults = inj
		res.faults = inj
	}
	sched := simclock.NewScheduler(clock)
	var coll *fleetobs.Collector
	if opts.Collect {
		coll = fleetobs.New(clock)
	}
	fabric := opts.Cluster.Fabric(clock)
	if coll != nil {
		fabric.SetTracer(coll.FabricTracer())
		fabric.SetMetrics(coll.FleetMetrics())
	}
	res.clock = clock
	res.fabric = fabric
	for _, l := range opts.Cluster.Links {
		res.linkNames = append(res.linkNames, l.Name)
		if opts.Faults != nil {
			fabric.SetLinkFaults(l.Name, opts.Faults)
		}
	}
	if opts.Faults != nil {
		// Host-scoped fault rules (host.crash) make the fabric's ports refuse
		// transfers toward a downed destination host, fail-fast.
		fabric.SetHostFaults(opts.Faults)
	}

	res.Moves = make([]MoveResult, n)
	// Live progress fan-in: the cycle-aware policy watches in-flight
	// convergence signals; the collector and user callback ride the same
	// stream.
	lastProgress := make([]migration.Progress, n)
	haveProgress := make([]bool, n)
	vmIndex := make(map[string]int, n)
	observe := func(vm string, p migration.Progress) {
		if i, ok := vmIndex[vm]; ok {
			lastProgress[i] = p
			haveProgress[i] = true
		}
		if opts.OnProgress != nil {
			opts.OnProgress(vm, p)
		}
	}
	if coll != nil {
		coll.OnProgress = observe
	}

	vms := make([]*workload.VM, n)
	profs := make([]workload.Profile, n)
	planes := make([]*fleetobs.VMPlane, n)
	for i, mv := range moves {
		m := &res.Moves[i]
		m.From, m.To = mv.From, mv.To
		prof, err := mv.VM.Profile()
		if err != nil {
			return nil, fmt.Errorf("fleet: move %d: %w", i, err)
		}
		profs[i] = prof
		route, err := fabric.Route(mv.From, mv.To)
		if err != nil {
			return nil, fmt.Errorf("fleet: move %d (%s): %w", i, mv.VM.Name, err)
		}
		m.Route = route
		var plane *fleetobs.VMPlane
		if coll != nil {
			plane = coll.AttachVM(mv.VM.Name)
		}
		planes[i] = plane
		vm, err := workload.Boot(workload.BootConfig{
			Name:     mv.VM.Name,
			MemBytes: mv.VM.memBytes(),
			Profile:  prof,
			Assisted: opts.Mode == migration.ModeAppAssisted,
			Seed:     opts.Seed + int64(i),
			Clock:    clock,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: booting %s: %w", mv.VM.Name, err)
		}
		if plane != nil {
			vm.AttachObs(plane.Tracer, plane.Metrics)
		}
		port, err := fabric.Dial(mv.From, mv.To)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		dest := migration.NewDestination(vm.Dom.NumPages())
		dest.SetHostName(mv.To)

		cfg := opts.Engine
		cfg.Mode = opts.Mode
		if opts.Retry.Enabled {
			// Healing retries reuse the abort's ResumeToken; that only saves
			// anything when aborts keep the destination image.
			cfg.Recovery.EnableResume = true
		}
		if opts.Faults != nil {
			cfg.Faults = opts.Faults
			dest.SetFaults(opts.Faults)
			vm.Guest.LKM.SetFaults(opts.Faults)
			vm.Guest.Bus.SetFaults(opts.Faults)
		}
		if plane != nil {
			port.SetMetrics(plane.Metrics)
			dest.SetMetrics(plane.Metrics)
			cfg.Tracer = plane.Tracer
			cfg.Metrics = plane.Metrics
			cfg.Ledger = plane.Ledger
		} else {
			vmName := mv.VM.Name
			cfg.OnProgress = func(p migration.Progress) { observe(vmName, p) }
		}
		guest := vm.Guest
		m.src = &migration.Source{
			Dom:   vm.Dom,
			LKM:   guest.LKM,
			Link:  port,
			Clock: clock,
			Dest:  dest,
			Cfg:   cfg,
			GuestFree: func(p mem.PFN) bool {
				return !guest.Frames.Allocated(p)
			},
			HintFor: guest.LKM.HintFor,
		}
		m.guest = guest.Frames
		m.Name = vm.Dom.Name()
		m.dest = dest
		vms[i] = vm
		vmIndex[m.Name] = i
	}

	// Launch state, mutated only under the cooperative scheduler.
	granted := make([]bool, n)
	inflight := make([]bool, n)
	adm := newAdmissionState(opts.Admission)
	remaining := n
	execs := make([]migration.GuestExecutor, n)
	for i, vm := range vms {
		execs[i] = vm.Driver
	}
	startGuests(sched, vms, execs, opts.GuestQuantum, &remaining)

	// One engine process per move: wait for a grant, run the attempt, and
	// either finish the move or — while its budget lasts — classify the
	// failure, relocate off a lost destination, and ask for a relaunch after
	// a backoff.
	pol := &opts.Retry
	for i := range vms {
		i := i
		vm := vms[i]
		m := &res.Moves[i]
		plane := planes[i]
		sched.Go(vm.Dom.Name()+"/engine", func() {
			defer func() { remaining-- }()
			// Per-move jitter PRNG: the whole healing schedule replays
			// byte-identically at the same policy seed.
			rng := rand.New(rand.NewSource(pol.Seed + int64(i)))
			var token *migration.ResumeToken
			for {
				sched.Wait(func() bool { return granted[i] || heal.abandon[i] }, opts.DecisionQuantum)
				if heal.abandon[i] {
					m.Outcome = OutcomeFailed
					if m.Err == nil {
						m.Err = fmt.Errorf("fleet: heal: %s: plan deadline %v exceeded before launch",
							m.Name, pol.PlanDeadline)
					} else {
						m.Err = fmt.Errorf("fleet: heal: %s: deadline exhausted: %w", m.Name, m.Err)
					}
					return
				}
				att := Attempt{
					To: m.To, Route: append([]string(nil), m.Route...),
					StartAt: clock.Now(), TokenReused: token != nil,
				}
				if heal.attempts[i] == 1 {
					m.StartAt = att.StartAt
				}
				var report *migration.Report
				var err error
				if token != nil {
					report, err = m.src.Resume(token)
				} else {
					report, err = m.src.Migrate()
				}
				att.EndAt = clock.Now()
				m.EndAt = att.EndAt
				m.Report = report
				inflight[i] = false
				granted[i] = false
				if opts.Ordering != OrderNaive {
					adm.release(att.Route, att.To)
				}
				if report != nil && report.Resume != nil {
					att.SavedBytes = report.Resume.SavedBytes
					att.RefetchPages = report.Resume.RefetchPages
					m.TokenSavedBytes += report.Resume.SavedBytes
				}
				if err == nil {
					m.Attempts = append(m.Attempts, att)
					if m.Err = m.complete(vm, report, opts.SkipVerify); m.Err != nil {
						m.Outcome = OutcomeFailed
						return
					}
					switch {
					case m.Relocations > 0:
						m.Outcome = OutcomeRelocated
					case heal.attempts[i] > 1:
						m.Outcome = OutcomeRetried
					default:
						m.Outcome = OutcomeCompleted
					}
					return
				}
				// Failure: classify, feed the breaker, keep the freshest
				// token (a discarded image's token is worthless — Resume
				// degrades on it — but carrying it is harmless).
				att.Err = err.Error()
				permanent := errors.Is(err, migration.ErrDestinationLost)
				att.Transient = !permanent
				m.Err = err
				failedHost := m.To
				if heal.breaker.fail(failedHost, clock.Now()) && coll != nil {
					coll.FleetMetrics().Counter("fleet.heal.breaker_opens").Inc()
				}
				if report != nil && report.Recovery != nil && report.Recovery.Token != nil {
					token = report.Recovery.Token
				}
				now := clock.Now()
				if heal.attempts[i] >= pol.MaxAttempts {
					m.Attempts = append(m.Attempts, att)
					if pol.MaxAttempts > 1 {
						m.Err = fmt.Errorf("fleet: heal: %s: %d attempts exhausted: %w",
							m.Name, heal.attempts[i], err)
					}
					m.Outcome = OutcomeFailed
					return
				}
				if now >= heal.planEnd || now-heal.firstLaunch[i] >= pol.MoveDeadline {
					m.Attempts = append(m.Attempts, att)
					m.Err = fmt.Errorf("fleet: heal: %s: deadline blown after %d attempts: %w",
						m.Name, heal.attempts[i], err)
					m.Outcome = OutcomeFailed
					return
				}
				if permanent && !pol.DisableRelocation {
					newTo, rerr := heal.pickDestination(&opts, res, moves, i, failedHost, clock.Now())
					for rerr != nil {
						// All candidates breaker-open: wait out the earliest
						// cooldown if the deadlines allow — a bounded sleep,
						// not a spin — then re-select.
						var ho *HostOpenError
						if !errors.As(rerr, &ho) {
							break
						}
						if ho.Until >= heal.planEnd ||
							ho.Until-heal.firstLaunch[i] >= pol.MoveDeadline {
							break
						}
						sched.Sleep(ho.Until - clock.Now())
						newTo, rerr = heal.pickDestination(&opts, res, moves, i, failedHost, clock.Now())
					}
					if rerr != nil {
						m.Attempts = append(m.Attempts, att)
						m.Err = fmt.Errorf("fleet: heal: %s: cannot relocate off %s: %w",
							m.Name, failedHost, rerr)
						m.Outcome = OutcomeFailed
						return
					}
					port, derr := fabric.Dial(m.From, newTo)
					route, rterr := fabric.Route(m.From, newTo)
					if derr != nil || rterr != nil {
						m.Attempts = append(m.Attempts, att)
						m.Err = fmt.Errorf("fleet: heal: %s: rewiring to %s: %w",
							m.Name, newTo, errors.Join(derr, rterr))
						m.Outcome = OutcomeFailed
						return
					}
					ndest := migration.NewDestination(vm.Dom.NumPages())
					ndest.SetHostName(newTo)
					if opts.Faults != nil {
						ndest.SetFaults(opts.Faults)
					}
					if plane != nil {
						port.SetMetrics(plane.Metrics)
						ndest.SetMetrics(plane.Metrics)
					}
					m.src.Link = port
					m.src.Dest = ndest
					m.dest = ndest
					m.To = newTo
					m.Route = route
					m.Relocations++
					if coll != nil {
						coll.FleetMetrics().Counter("fleet.heal.relocations").Inc()
					}
				}
				d := healBackoff(rng, pol, heal.attempts[i])
				att.Backoff = d
				m.HealBackoff += d
				heal.notBefore[i] = clock.Now() + d
				if until, open := heal.breaker.open(m.To, clock.Now()); open && until > heal.notBefore[i] {
					heal.notBefore[i] = until
				}
				m.Attempts = append(m.Attempts, att)
				heal.pending[i] = true
				if coll != nil {
					fm := coll.FleetMetrics()
					fm.Counter("fleet.heal.retries").Inc()
					fm.Counter("fleet.heal.backoff_ns").AddDuration(d)
				}
			}
		})
	}

	// The orchestrator process: one decision tick every DecisionQuantum,
	// granting launches in compiled plan order. Relaunches go through the
	// same decision logic as first launches, so admission and cycle policy
	// hold across retries and relocations, and moves whose deadlines passed
	// are abandoned. It ticks only while an unfinished move still has a
	// launch left in its budget: under the one-attempt policy it exits right
	// after the last grant instead of idling the plan clock past the last
	// completion.
	sched.Go("orchestrator", func() {
		if d := opts.Warmup - clock.Now(); d > 0 {
			sched.Sleep(d)
		}
		for i := range res.Moves {
			res.Moves[i].EligibleAt = clock.Now()
			heal.pending[i] = true
		}
		for heal.launchesLeft(res.Moves) {
			now := clock.Now()
			for i := range res.Moves {
				if !heal.pending[i] || granted[i] || heal.abandon[i] {
					continue
				}
				m := &res.Moves[i]
				if now >= heal.planEnd ||
					(heal.attempts[i] > 0 && now-heal.firstLaunch[i] >= pol.MoveDeadline) {
					heal.abandon[i] = true
					heal.pending[i] = false
					continue
				}
				if now < heal.notBefore[i] {
					continue // backoff/cooldown gate, not a deferral
				}
				if _, open := heal.breaker.open(m.To, now); open {
					continue
				}
				if decideLaunch(&opts, res, profs, lastProgress, haveProgress, inflight, adm, i) {
					if heal.attempts[i] == 0 {
						m.LaunchedAt = now
						m.QuietLaunch = profs[i].Cycle.Enabled() && profs[i].Cycle.QuietAt(now)
						heal.firstLaunch[i] = now
					}
					heal.attempts[i]++
					granted[i] = true
					inflight[i] = true
					if opts.Ordering != OrderNaive {
						adm.admit(m.Route, m.To)
					}
					heal.pending[i] = false
				} else {
					m.Deferrals++
				}
			}
			if heal.launchesLeft(res.Moves) {
				sched.Sleep(opts.DecisionQuantum)
			}
		}
	})
	sched.Run()

	rs := make([]*VMResult, n)
	for i := range res.Moves {
		rs[i] = &res.Moves[i].VMResult
		rs[i].Samples = vms[i].Driver.Samples()
	}
	res.MakeSpan = makeSpan(rs)
	res.Fabric = fabric.Report()
	res.Obs = coll
	// The standing fabric invariant: fair-share settling may not lose or
	// invent bytes, on any link, after any plan.
	if err := res.Fabric.VerifyConservation(); err != nil {
		return nil, fmt.Errorf("fleet: after %s plan: %w", opts.Ordering, err)
	}
	if opts.SLA != nil {
		res.SLA = priceSLA(*opts.SLA, rs, coll)
	}
	return res, nil
}

// decideLaunch is one launch decision for move i at the current tick.
func decideLaunch(opts *OrchestratorOptions, res *PlanResult, profs []workload.Profile,
	lastProgress []migration.Progress, haveProgress, inflight []bool,
	adm *admissionState, i int) bool {
	m := &res.Moves[i]
	switch opts.Ordering {
	case OrderNaive:
		return true
	case OrderAdmission:
		return adm.admissible(m.Route, m.To)
	}
	// Cycle-aware: admission first — its caps are inviolable, even for a
	// forced launch.
	if !adm.admissible(m.Route, m.To) {
		return false
	}
	now := res.clock.Now()
	if now-m.EligibleAt >= opts.QuietHorizon {
		// Bounded wait: the move has been deferred long enough; launch at
		// the first admissible tick no matter what the cycle says.
		m.Forced = true
		return true
	}
	cyc := profs[i].Cycle
	if cyc.Enabled() && !cyc.QuietAt(now) {
		return false
	}
	// Static convergence prediction: will pre-copy outrun dirtying at the
	// bandwidth this flow would get if launched now?
	sharers := 1
	for j := range inflight {
		if j != i && inflight[j] && routesOverlap(res.Moves[j].Route, m.Route) {
			sharers++
		}
	}
	bw := opts.Cluster.bottleneckBandwidth(m.Route, m.From, m.To)
	rate := float64(bw) / float64(sharers)
	dirty := predictedDirtyByteRate(profs[i]) * cyc.ActivityAt(now)
	// The bytes remaining are the VM's whole memory: the first pre-copy
	// round ships everything.
	memBytes := m.src.Dom.NumPages() * mem.PageSize
	if _, conv := migration.EstimateETA(memBytes, rate, dirty); !conv {
		return false
	}
	// Dynamic back-pressure: an in-flight migration on a shared link that
	// reports itself non-converging is consuming bandwidth indefinitely;
	// piling on makes both worse.
	for j := range inflight {
		if j == i || !inflight[j] || !haveProgress[j] {
			continue
		}
		p := lastProgress[j]
		if !p.Converging && p.Phase == migration.ProgressPreCopy &&
			routesOverlap(res.Moves[j].Route, m.Route) {
			return false
		}
	}
	return true
}

func routesOverlap(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// predictedDirtyByteRate estimates a profile's full-speed dirtying in
// bytes/sec: young-generation allocation plus page-grain old/JIT/kernel
// churn.
func predictedDirtyByteRate(p workload.Profile) float64 {
	pages := p.OldMutatePagesPerSec + p.JITPagesPerSec + p.KernelPagesPerSec
	return float64(p.AllocBytesPerSec) + pages*float64(mem.PageSize)
}
