// Package javmm is a faithful, laptop-scale reproduction of
// "Application-Assisted Live Migration of Virtual Machines with Java
// Applications" (Hou, Shin, Sung — EuroSys 2015).
//
// It provides, as a library:
//
//   - a deterministic simulation of Xen pre-copy live migration (iterative
//     dirty-page transfer, log-dirty rounds, stop conditions, stop-and-copy),
//   - the paper's generic application-assisted migration framework — an
//     in-guest LKM bridging the migration daemon and applications over
//     netlink/event channels, a transfer bitmap, a PFN cache, and the
//     five-state migration workflow,
//   - JAVMM itself: a HotSpot-like generational-heap JVM simulator whose TI
//     agent skips migrating young-generation garbage and ships only the
//     survivors of an enforced pre-suspension minor GC,
//   - nine SPECjvm2008-like workloads calibrated to the paper's heap
//     profiles, and an experiment harness regenerating every table and
//     figure of the evaluation.
//
// The quickest path from zero to a migrated VM:
//
//	prof, _ := javmm.Workload("derby")
//	vm, _ := javmm.BootVM(javmm.BootConfig{Profile: prof, Assisted: true})
//	vm.Driver.Run(300 * time.Second) // warm up
//	res, _ := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
//	fmt.Println(res.TotalTime, res.TotalBytes(), res.WorkloadDowntime)
//
// Everything runs against a virtual clock: a 60-second migration completes
// in well under a second of wall time and is exactly reproducible.
package javmm

import (
	"fmt"
	"io"
	"time"

	"javmm/internal/cacheapp"
	"javmm/internal/faults"
	"javmm/internal/fleet"
	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/jvm"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/obs/attrib"
	"javmm/internal/obs/fleetobs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/perf"
	"javmm/internal/obs/sla"
	"javmm/internal/replication"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported public surface.
type (
	// VM is a fully assembled guest: domain, guest OS with the framework
	// LKM, JVM, optional JAVMM agent and workload driver.
	VM = workload.VM
	// BootConfig parameterizes VM assembly.
	BootConfig = workload.BootConfig
	// Profile describes a workload's heap behaviour and execution rates.
	Profile = workload.Profile
	// Sample is one per-second throughput observation.
	Sample = workload.Sample
	// Report is the migration engine's outcome.
	Report = migration.Report
	// IterationStats describes one pre-copy iteration.
	IterationStats = migration.IterationStats
	// Mode selects the migration algorithm.
	Mode = migration.Mode
	// EngineConfig tunes the pre-copy engine.
	EngineConfig = migration.Config
	// MemRange is a half-open guest virtual address range.
	MemRange = mem.VARange
	// Guest is the in-guest operating system state (processes, LKM).
	Guest = guestos.Guest
	// Process is a guest user process with a walkable address space.
	Process = guestos.Process
	// JVM is the simulated HotSpot instance inside a VM.
	JVM = jvm.JVM
	// CacheApp is the memcached-like application of the §6 extension.
	CacheApp = cacheapp.App
	// CacheAppConfig parameterizes CacheApp.
	CacheAppConfig = cacheapp.Config
	// Clock is the deterministic virtual clock all components share.
	Clock = simclock.Clock
	// GuestExecutor runs guest activity for spans of virtual time.
	GuestExecutor = migration.GuestExecutor
	// Tracer records structured events against the virtual clock; attach
	// one via MigrateOptions.Tracer and export with WriteJSONL or
	// WriteChromeTrace.
	Tracer = obs.Tracer
	// Event is one recorded trace event (virtual timestamp, track, kind,
	// name, phase, attributes).
	Event = obs.Event
	// Metrics is a registry of counters, gauges and time-weighted
	// histograms keyed to the virtual clock.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time, name-sorted view of a Metrics
	// registry.
	MetricsSnapshot = obs.MetricsSnapshot
	// Ledger records per-page provenance for one migration: every send
	// tagged with iteration and reason, every skip with its cause. Attach
	// one via MigrateOptions.Ledger; its totals reconcile exactly with the
	// run's Report.
	Ledger = ledger.Ledger
	// LedgerSummary aggregates a ledger: totals, wasted and saved bytes,
	// per-reason buckets and page-population counts.
	LedgerSummary = ledger.Summary
	// PageStat is one page's provenance record (see Ledger.TopPages).
	PageStat = ledger.PageStat
	// SendReason classifies why one page send happened (first copy,
	// re-dirtied, final iteration, demand fault, hybrid refetch).
	SendReason = ledger.SendReason
	// SkipReason classifies why a considered page was left behind
	// (bitmap skip, free skip, dirty deferral).
	SkipReason = ledger.SkipReason
	// Attribution is the reconciled accounting of one run: the downtime
	// breakdown, the per-reason traffic split and the per-iteration series.
	Attribution = attrib.Attribution
	// FaultInjector evaluates a FaultPlan against the virtual clock; attach
	// one via MigrateOptions.Faults to exercise the recovery machinery. A
	// nil injector is a valid no-op.
	FaultInjector = faults.Injector
	// FaultPlan is an ordered set of fault rules.
	FaultPlan = faults.Plan
	// FaultRule is one declarative fault (site, virtual time, occurrence).
	FaultRule = faults.Rule
	// FaultSite names one injection point in the migration pipeline.
	FaultSite = faults.Site
	// FaultEvent is one audit-log entry: a fault that actually fired.
	FaultEvent = faults.Event
	// RecoveryConfig tunes the engine's retry/backoff/degrade policy
	// (EngineConfig.Recovery).
	RecoveryConfig = migration.Recovery
	// RecoveryStats is the Report's account of the robustness layer's work
	// (Report.Recovery, nil on fault-free runs).
	RecoveryStats = migration.RecoveryStats
	// RetryRecord is one retried stage attempt.
	RetryRecord = migration.RetryRecord
	// Degradation records a mid-flight downgrade of an assisted run to
	// vanilla pre-copy semantics (paper §4.2).
	Degradation = migration.Degradation
	// IntegrityConfig tunes the end-to-end page-digest verification plane
	// (EngineConfig.Integrity).
	IntegrityConfig = migration.Integrity
	// IntegrityStats is the Report's account of the digest audit
	// (Report.Integrity; nil when the sink carries no digests or the plane
	// is disabled).
	IntegrityStats = migration.IntegrityStats
	// ResumeToken is the credential an aborted run mints
	// (Report.Recovery.Token, with EngineConfig.Recovery.EnableResume set);
	// feed it to Resume to continue the migration without paying the full
	// first copy again.
	ResumeToken = migration.ResumeToken
	// ResumeStats is a resumed run's account of how much of its token was
	// honoured (Report.Resume).
	ResumeStats = migration.ResumeStats
	// FabricReport is the fabric's merged per-link accounting.
	FabricReport = netsim.FabricReport
	// LinkUsage is one shared link's utilization account.
	LinkUsage = netsim.LinkUsage
	// FleetOptions parameterizes MigrateMany.
	FleetOptions = fleet.Options
	// FleetResult is a whole fleet run: per-VM outcomes plus the fabric
	// report and the fleet-level makespan.
	FleetResult = fleet.Result
	// FleetVMResult is one VM's outcome within a fleet run.
	FleetVMResult = fleet.VMResult
	// FlowUsage is one flow's fair-share accounting (queueing and stall
	// time) in a FabricReport.
	FlowUsage = netsim.FlowUsage
	// Progress is one point of the live migration progress stream: phase,
	// iteration, cumulative pages/bytes, outstanding work, observed rates
	// and the clamped ETA. Receive it via MigrateOptions' EngineConfig
	// OnProgress or FleetOptions.OnProgress.
	Progress = migration.Progress
	// ProgressPhase names a lifecycle phase in the progress stream.
	ProgressPhase = migration.ProgressPhase
	// FleetCollector is the fleet observability plane MigrateMany builds
	// with FleetOptions.Collect: per-VM trace lanes merged into one Chrome
	// trace, labeled metrics, captured progress streams, the fabric lane.
	FleetCollector = fleetobs.Collector
	// VMPlane is one VM's observability surfaces inside a FleetCollector.
	VMPlane = fleetobs.VMPlane
	// FleetSnapshot is the fleet metrics interchange form (per-VM registries
	// plus the fleet-scoped registry) javmm-analyze's fleet mode ingests.
	FleetSnapshot = fleetobs.Snapshot
	// Label is one Prometheus label on a labeled snapshot.
	Label = obs.Label
	// LabeledSnapshot pairs a metrics snapshot with Prometheus labels for
	// WritePrometheusLabeled.
	LabeledSnapshot = obs.LabeledSnapshot
	// SLAModel is the pricing policy for SLA cost accounting: a penalty per
	// second of application-visible downtime plus a penalty per operation
	// lost to the migration's throughput dip.
	SLAModel = sla.Model
	// SLACost is one migration's priced account, reconciled tick-for-tick
	// against the run's attribution.
	SLACost = sla.Cost
	// FleetSLACost aggregates per-VM SLA costs over a fleet run.
	FleetSLACost = sla.FleetCost
	// Cluster is the declared topology the orchestrator plans over: hosts
	// with capacity grouped into racks, shared links, VM placements.
	Cluster = fleet.Cluster
	// HostSpec is one physical host in a Cluster.
	HostSpec = fleet.HostSpec
	// ClusterLinkSpec is one shared fabric link in a Cluster.
	ClusterLinkSpec = fleet.LinkSpec
	// VMSpec is one VM placement in a Cluster, with its workload and
	// (optionally) the activity cycle the cycle-aware scheduler exploits.
	VMSpec = fleet.VMSpec
	// CycleSpec declares a workload's periodic quiet window.
	CycleSpec = workload.CycleSpec
	// MigrationPlan is a compiled-on-demand batch plan ("evacuate host H",
	// "drain rack R", "migrate vm V to H", "rebalance to N%").
	MigrationPlan = fleet.Plan
	// PlanMove is one VM relocation a plan compiles to.
	PlanMove = fleet.Move
	// OrchestratorOptions parameterizes Orchestrate.
	OrchestratorOptions = fleet.OrchestratorOptions
	// Ordering selects the orchestrator's launch policy.
	Ordering = fleet.Ordering
	// AdmissionPolicy bounds concurrent migrations per link and per
	// destination host.
	AdmissionPolicy = fleet.AdmissionPolicy
	// AdmissionError is the typed refusal for plans that cannot be placed
	// (destination capacity exhausted) — check with errors.As.
	AdmissionError = fleet.AdmissionError
	// PlanMoveResult is one executed move: the VM's migration outcome plus
	// the orchestrator's scheduling record.
	PlanMoveResult = fleet.MoveResult
	// PlanResult is a whole executed batch plan.
	PlanResult = fleet.PlanResult
	// RetryPolicy is each move's launch budget: per-move retries with
	// seeded backoff, move/plan deadlines, destination re-selection and a
	// per-host circuit breaker when Enabled, one attempt per move otherwise
	// (OrchestratorOptions.Retry; DESIGN.md §18).
	RetryPolicy = fleet.RetryPolicy
	// BreakerPolicy is the per-host circuit breaker inside a RetryPolicy:
	// K failures inside a window open the host; it rejoins re-selection
	// after the cooldown.
	BreakerPolicy = fleet.BreakerPolicy
	// HostOpenError is the typed refusal when every otherwise-admissible
	// destination is breaker-open — check with errors.As; Until says when
	// the earliest breaker closes.
	HostOpenError = fleet.HostOpenError
	// MoveOutcome classifies how a healed move ended (completed, retried,
	// relocated, failed).
	MoveOutcome = fleet.MoveOutcome
	// MoveAttempt is one launch of a healed move: destination, window,
	// failure classification and token reuse.
	MoveAttempt = fleet.Attempt
	// HealingSummary is PlanResult.Healing()'s per-move outcome table with
	// retry/relocation/backoff/token-savings totals, reconciled against the
	// ledger's resume-refetch tags (javmm-analyze -heal ingests its JSON).
	HealingSummary = fleet.HealingSummary
)

// Progress phases, in the order a run moves through them.
const (
	ProgressStart       = migration.ProgressStart
	ProgressPreCopy     = migration.ProgressPreCopy
	ProgressPrepare     = migration.ProgressPrepare
	ProgressStopAndCopy = migration.ProgressStopAndCopy
	ProgressPostCopy    = migration.ProgressPostCopy
	ProgressDone        = migration.ProgressDone
	ProgressAborted     = migration.ProgressAborted
)

// DefaultSLA is the reference pricing policy experiments use, so SLA-cost
// columns are comparable across runs.
func DefaultSLA() SLAModel { return sla.Default() }

// Fault-injection sites, re-exported from the faults package.
const (
	// FaultLinkPartition takes the migration link down for a window.
	FaultLinkPartition = faults.SiteLinkPartition
	// FaultLinkBandwidth collapses link bandwidth for a window.
	FaultLinkBandwidth = faults.SiteLinkBandwidth
	// FaultNetlinkLoss drops a netlink message.
	FaultNetlinkLoss = faults.SiteNetlinkLoss
	// FaultNetlinkDelay delivers a netlink message late.
	FaultNetlinkDelay = faults.SiteNetlinkDelay
	// FaultLKMHandshake swallows the LKM's suspension-ready notification;
	// the run degrades to vanilla pre-copy.
	FaultLKMHandshake = faults.SiteLKMHandshake
	// FaultDestReceive fails one page receive transiently.
	FaultDestReceive = faults.SiteDestReceive
	// FaultDestCrash crashes the destination mid-stream (permanent).
	FaultDestCrash = faults.SiteDestCrash
	// FaultPostCopyFetch fails one post-copy demand fetch.
	FaultPostCopyFetch = faults.SitePostCopyFetch
	// FaultCorruptPageStream flips a bit in a page payload in flight; the
	// digest audit detects and repairs it (or aborts cleanly).
	FaultCorruptPageStream = faults.SiteCorruptPage
	// FaultHostCrash takes a destination host down for a window: every
	// in-flight move targeting it dies with ErrDestinationLost and the
	// fabric refuses new transfers toward it until the window passes.
	// Scope with host=<name>; unscoped it matches every host.
	FaultHostCrash = faults.SiteHostCrash
	// FaultHostFlaky makes a host refuse page receives (transiently) for a
	// window — the engine's retry/backoff rides it out or exhausts.
	FaultHostFlaky = faults.SiteHostFlaky
)

// Errors surfaced by aborted migrations, re-exported for errors.Is checks.
var (
	// ErrDestinationLost reports a destination that crashed mid-stream.
	ErrDestinationLost = migration.ErrDestinationLost
	// ErrRetriesExhausted wraps the last transient error once the retry
	// budget or stage deadline is exhausted.
	ErrRetriesExhausted = migration.ErrRetriesExhausted
	// ErrIntegrity reports a switchover digest audit that could not be
	// healed within the repair budget.
	ErrIntegrity = migration.ErrIntegrity
	// ErrCancelled reports a run aborted by EngineConfig.CancelAfter or
	// ShouldCancel; with EnableResume set the abort still mints a token.
	ErrCancelled = migration.ErrCancelled
)

// ReasonResumeRefetch tags the sends a resumed run paid for because its
// token could not prove the page intact at the destination; the full send
// taxonomy is enumerated by SendReasons.
const ReasonResumeRefetch = ledger.ReasonResumeRefetch

// NewFaultInjector compiles a fault plan against the VM's virtual clock.
func NewFaultInjector(c *Clock, plan FaultPlan) (*FaultInjector, error) {
	return faults.NewInjector(c, plan)
}

// ParseFaultRule parses the CLI fault-rule syntax
// (site[@at][#nth][,key=value...]), e.g. "link.partition@10s,for=2s" or
// "dest.receive#3,count=2".
func ParseFaultRule(spec string) (FaultRule, error) { return faults.ParseRule(spec) }

// ParseFaultPlan parses each spec with ParseFaultRule.
func ParseFaultPlan(specs []string) (FaultPlan, error) { return faults.ParsePlan(specs) }

// FaultSites enumerates every injection site in presentation order.
func FaultSites() []FaultSite { return faults.Sites() }

// Migration modes.
const (
	// ModeXen is unmodified pre-copy migration, agnostic of applications.
	ModeXen = migration.ModeVanilla
	// ModeJAVMM is application-assisted migration with JVM assistance.
	ModeJAVMM = migration.ModeAppAssisted
	// ModePostCopy is the related-work post-copy baseline: switch over
	// first, then demand-fetch and pre-page memory.
	ModePostCopy = migration.ModePostCopy
	// ModeHybrid composes both engines: a bounded pre-copy warm phase
	// followed by a post-copy switchover for the remainder.
	ModeHybrid = migration.ModeHybrid
)

// Collector names for BootConfig.Collector.
const (
	// CollectorParallel is the contiguous-young-generation parallel
	// scavenger the paper prototypes against.
	CollectorParallel = workload.CollectorParallel
	// CollectorG1 is the garbage-first-style regional collector of the
	// paper's §6 future work: a non-contiguous, churning young generation.
	CollectorG1 = workload.CollectorG1
)

// Link bandwidth presets (payload bytes/sec).
const (
	// GigabitEthernet is the paper's testbed network.
	GigabitEthernet = netsim.GigabitEffective
	// TenGigabitEthernet models the §6 upgraded environment.
	TenGigabitEthernet = netsim.TenGigabitEffective
)

// MigrateMany live-migrates N VMs concurrently over one shared network
// fabric, all on a single deterministic clock: each VM gets a guest process
// that keeps its workload running and an engine process driving its
// migration, and every bulk transfer contends for the shared backbone under
// progressive fair-share arbitration. Per-VM outcomes come back in boot
// order together with the merged fabric accounting. Same options in, same
// result out — bit for bit, under the race detector too.
func MigrateMany(opts FleetOptions) (*FleetResult, error) { return fleet.Run(opts) }

// Launch orderings for OrchestratorOptions.Ordering, dumbest to smartest.
const (
	// OrderNaive launches every migration at once, no admission control.
	OrderNaive = fleet.OrderNaive
	// OrderAdmission launches FIFO behind the admission policy's caps.
	OrderAdmission = fleet.OrderAdmission
	// OrderCycleAware adds workload-cycle timing and convergence-aware
	// deferral (bounded by QuietHorizon) on top of admission control.
	OrderCycleAware = fleet.OrderCycleAware
)

// Orchestrate executes a batch migration plan on a cluster: every guest and
// engine runs on one deterministic clock and shared fabric, launches follow
// the chosen ordering under admission control, and the whole plan replays
// bit-identically at the same seed. See DESIGN.md §17.
func Orchestrate(opts OrchestratorOptions) (*PlanResult, error) { return fleet.Orchestrate(opts) }

// Move outcomes for a healed plan (PlanMoveResult.Outcome).
const (
	// MovePending never reached a terminal state (healing off, or the move
	// never launched).
	MovePending = fleet.OutcomePending
	// MoveCompleted succeeded on the first attempt.
	MoveCompleted = fleet.OutcomeCompleted
	// MoveRetried succeeded after 1+ retries against the same destination.
	MoveRetried = fleet.OutcomeRetried
	// MoveRelocated succeeded after re-selection to another destination.
	MoveRelocated = fleet.OutcomeRelocated
	// MoveFailed exhausted its healing budget; the source VM keeps running.
	MoveFailed = fleet.OutcomeFailed
)

// ParseBreakerPolicy parses the CLI breaker grammar
// "threshold/window/cooldown" (e.g. "3/2m/5m") or "off".
func ParseBreakerPolicy(s string) (BreakerPolicy, error) { return fleet.ParseBreakerPolicy(s) }

// ReadHealingSummary reads a healing summary written by
// HealingSummary.WriteJSON (javmm-migrate -heal-out).
func ReadHealingSummary(path string) (*HealingSummary, error) {
	return fleet.ReadHealingSummary(path)
}

// ParseCluster parses the declarative cluster grammar (statements separated
// by semicolons or newlines):
//
//	host H [rack R] [ram 16G] [cores 16] [nic 1G]
//	link L bw 1G [lat 100us] hosts a,b,c
//	vm V on H [workload derby] [mem 2G] [cycle period/quietStart/quietLen/factor[/phase]]
//
// When no link is declared, a default gigabit backbone connects every host.
func ParseCluster(text string) (*Cluster, error) { return fleet.ParseCluster(text) }

// ParseMigrationPlan parses the batch-plan grammar, one directive per
// statement: "evacuate host H", "drain rack R", "migrate vm V to H",
// "rebalance to N%". Directives compile against a Cluster at Orchestrate
// time.
func ParseMigrationPlan(text string) (*MigrationPlan, error) { return fleet.ParseMigrationPlan(text) }

// ParseOrdering parses an ordering name: "naive", "admission" or
// "cycle-aware".
func ParseOrdering(s string) (Ordering, error) { return fleet.ParseOrdering(s) }

// VerifyAdmission re-checks a plan's executed engine windows against an
// admission policy: at no instant may more migrations overlap on a link or
// into a destination host than the policy allows.
func VerifyAdmission(moves []PlanMoveResult, policy AdmissionPolicy) error {
	return fleet.VerifyAdmission(moves, policy)
}

// NewTracer returns a tracer recording against the given virtual clock.
func NewTracer(c *Clock) *Tracer { return obs.New(c) }

// NewMetrics returns a metrics registry keyed to the given virtual clock.
func NewMetrics(c *Clock) *Metrics { return obs.NewMetrics(c) }

// NewLedger returns an empty provenance ledger; pass it as
// MigrateOptions.Ledger and read it back after the run.
func NewLedger() *Ledger { return ledger.New() }

// SendReasons enumerates the ledger's send taxonomy in deterministic
// presentation order; SkipReasons does the same for skips.
func SendReasons() []SendReason { return ledger.SendReasons() }

// SkipReasons enumerates the ledger's skip taxonomy in deterministic
// presentation order.
func SkipReasons() []SkipReason { return ledger.SkipReasons() }

// WriteTraceJSONL exports recorded events as one JSON object per line.
func WriteTraceJSONL(w io.Writer, events []Event) error { return obs.WriteJSONL(w, events) }

// WriteTraceChrome exports recorded events as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteTraceChrome(w io.Writer, events []Event) error { return obs.WriteChromeTrace(w, events) }

// WritePrometheusLabeled renders several labeled snapshots as one Prometheus
// page: same-named series merge under one TYPE header, label keys and rows in
// deterministic order. A single unlabeled snapshot renders byte-identically
// to WritePrometheus.
func WritePrometheusLabeled(w io.Writer, snaps []LabeledSnapshot) error {
	return obs.WritePrometheusLabeled(w, snaps)
}

// WriteFleetSnapshotJSON exports a fleet metrics snapshot as indented JSON;
// ReadFleetSnapshotJSON parses it back (javmm-analyze's fleet ingest format).
func WriteFleetSnapshotJSON(w io.Writer, s FleetSnapshot) error {
	return fleetobs.WriteSnapshotJSON(w, s)
}

// ReadFleetSnapshotJSON parses a snapshot written by WriteFleetSnapshotJSON.
func ReadFleetSnapshotJSON(r io.Reader) (FleetSnapshot, error) {
	return fleetobs.ReadSnapshotJSON(r)
}

// FleetLabeledSnapshots rebuilds the labeled-snapshot list from an ingested
// fleet snapshot, ready for WritePrometheusLabeled.
func FleetLabeledSnapshots(s FleetSnapshot) []LabeledSnapshot {
	return fleetobs.LabeledFromSnapshot(s)
}

// WriteFleetSLAJSON exports a fleet SLA cost as indented JSON;
// ReadFleetSLAJSON parses it back.
func WriteFleetSLAJSON(w io.Writer, f FleetSLACost) error { return sla.WriteJSON(w, f) }

// ReadFleetSLAJSON parses a fleet cost written by WriteFleetSLAJSON.
func ReadFleetSLAJSON(r io.Reader) (FleetSLACost, error) { return sla.ReadJSON(r) }

// BuildSLACost prices one run against the model: downtime × penalty plus the
// throughput-dip integral over the sampled workload curve. The attribution
// must already reconcile (Attribute checks); the returned cost re-derives
// exactly from its inputs via SLACost.Reconcile.
func BuildSLACost(vm string, m SLAModel, a *Attribution, samples []Sample) SLACost {
	return sla.Build(vm, m, a, samples)
}

// ReadTraceJSONL parses a trace previously exported with WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]Event, error) { return obs.ReadJSONL(r) }

// WriteMetricsJSON exports a metrics snapshot as indented JSON, and
// ReadMetricsJSON parses it back.
func WriteMetricsJSON(w io.Writer, s MetricsSnapshot) error { return obs.WriteMetricsJSON(w, s) }

// ReadMetricsJSON parses a snapshot written by WriteMetricsJSON.
func ReadMetricsJSON(r io.Reader) (MetricsSnapshot, error) { return obs.ReadMetricsJSON(r) }

// WritePrometheus renders a metrics snapshot in Prometheus text exposition
// format (javmm_-prefixed metric names).
func WritePrometheus(w io.Writer, s MetricsSnapshot) error { return obs.WritePrometheus(w, s) }

// Attribute builds the reconciled run accounting from a migration result and
// the (optional) ledger attached to the run: the exact downtime breakdown,
// the per-reason traffic split and the per-iteration dirty-rate/traffic
// series. It returns an error if the attribution does not reconcile with the
// Report byte-for-byte and tick-for-tick — which would mean the
// instrumentation itself is broken.
func Attribute(res *Result, led *Ledger) (*Attribution, error) {
	a := attrib.Build(res.Report, res.EnforcedGC, led)
	if err := a.Reconcile(res.Report); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseMode parses a migration mode name: "xen" (vanilla pre-copy),
// "javmm" (application-assisted), "post-copy" or "hybrid". Every parsed
// mode is accepted by Migrate and round-trips through Mode.String.
func ParseMode(s string) (Mode, error) { return migration.ParseMode(s) }

// Workloads returns the nine SPECjvm2008-like workload profiles (Table 1).
func Workloads() []Profile { return workload.Catalog() }

// Workload returns the named catalog profile.
func Workload(name string) (Profile, error) { return workload.Lookup(name) }

// WorkloadNames returns the catalog names in Table 1 order.
func WorkloadNames() []string { return workload.Names() }

// BootVM assembles a VM running the given workload. With Assisted set the
// JAVMM TI agent is loaded, enabling ModeJAVMM migration; either way the VM
// can be migrated with ModeXen.
func BootVM(cfg BootConfig) (*VM, error) { return workload.Boot(cfg) }

// MigrateOptions parameterizes Migrate.
type MigrateOptions struct {
	// Mode selects the migration engine: vanilla pre-copy (ModeXen),
	// application-assisted (ModeJAVMM, requires a VM booted with
	// Assisted), post-copy (ModePostCopy) or hybrid pre+post-copy
	// (ModeHybrid).
	Mode Mode
	// Bandwidth is the link's payload bandwidth in bytes/sec
	// (default GigabitEthernet).
	Bandwidth uint64
	// Latency is the link's one-way latency (default 100 µs).
	Latency time.Duration
	// Engine overrides pre-copy engine defaults (iteration cap, dirty
	// threshold, compression, ...). Mode above wins over Engine.Mode.
	Engine EngineConfig
	// SkipVerify disables the post-migration correctness check.
	SkipVerify bool
	// Executor overrides the guest executor run during migration; nil uses
	// the VM's workload driver. Use Multiplex to run several applications.
	Executor GuestExecutor
	// Tracer, when non-nil, records the migration as structured events on
	// the virtual clock: engine iterations and stop-and-copy, LKM state
	// transitions, GC spans, netlink messages, throughput samples. It is
	// attached to every instrumented layer of the VM for the run.
	Tracer *Tracer
	// Metrics, when non-nil, accumulates counters/gauges/histograms from
	// the same emit points (migration.*, jvm.gc.*, lkm.*, net.*).
	Metrics *Metrics
	// Ledger, when non-nil, records per-page provenance for the run: every
	// page send tagged with its iteration and reason, every skip with its
	// cause. Feed it to Attribute afterwards for the reconciled breakdown.
	Ledger *Ledger
	// Faults, when non-nil, injects the plan's faults into every layer of
	// the run (link, netlink bus, LKM handshake, destination, demand-fetch
	// path) and enables graceful degradation: an assisted run whose
	// suspension handshake fails completes with vanilla pre-copy semantics
	// instead of erroring. Tune retries/backoff via Engine.Recovery.
	Faults *FaultInjector
}

// Result combines the engine report with guest-side observations.
type Result struct {
	*Report
	// WorkloadDowntime is the application-visible downtime: stop-and-copy
	// and resumption, plus (JAVMM) the enforced GC and final bitmap update.
	WorkloadDowntime time.Duration
	// EnforcedGC is the duration of the pre-suspension collection (zero
	// for ModeXen).
	EnforcedGC time.Duration
	// VerifyErr is the destination-consistency check outcome; nil means
	// every required page matched (always nil when SkipVerify).
	VerifyErr error
	// Destination holds the destination host's copy of the VM memory.
	Destination *migration.Destination
}

// ResumeToken returns the resume credential the run minted on abort, or nil
// for a completed run (or one without Engine.Recovery.EnableResume).
func (r *Result) ResumeToken() *ResumeToken {
	if r == nil || r.Report == nil || r.Report.Recovery == nil {
		return nil
	}
	return r.Report.Recovery.Token
}

// Migrate live-migrates the VM over a simulated link and returns the
// combined result. The VM keeps running (at "the destination") afterwards
// and can be migrated again.
func Migrate(vm *VM, opts MigrateOptions) (*Result, error) {
	return runMigration(vm, opts, nil, nil)
}

// Resume continues an aborted migration from the token its abort minted
// (requires the aborted run to have set Engine.Recovery.EnableResume). The
// same destination image is reused; the engine re-validates everything the
// token claims and transfers only the pages it cannot prove intact —
// degrading to a full first copy against a destination that crashed or was
// discarded. Pass fresh options: a nil Faults detaches the aborted run's
// injector from every layer, so the resume does not replay the same faults
// unless explicitly asked to.
func Resume(vm *VM, prior *Result, opts MigrateOptions) (*Result, error) {
	if prior == nil || prior.Report == nil || prior.Report.Recovery == nil ||
		prior.Report.Recovery.Token == nil {
		return nil, fmt.Errorf("javmm: prior result carries no resume token (set Engine.Recovery.EnableResume)")
	}
	tok := prior.Report.Recovery.Token
	opts.Mode = tok.Mode
	return runMigration(vm, opts, prior.Destination, tok)
}

// runMigration is the shared plumbing behind Migrate and Resume: migrate
// the VM's guest, then fold the VM's own observations into the Result.
func runMigration(vm *VM, opts MigrateOptions, dest *migration.Destination, tok *migration.ResumeToken) (*Result, error) {
	cfg := opts.config()
	vm.AttachObs(cfg.Tracer, cfg.Metrics)
	exec := opts.Executor
	if exec == nil {
		exec = vm.Driver
	}
	src, res, err := migrate(vm.Guest, exec, opts, cfg, dest, tok)
	if err != nil {
		return res, err
	}
	if vm.Driver.Err != nil {
		return nil, fmt.Errorf("javmm: workload failed during migration: %w", vm.Driver.Err)
	}
	res.EnforcedGC = vm.EnforcedGC()
	res.WorkloadDowntime = migration.WorkloadDowntime(res.Report, res.EnforcedGC)
	if !opts.SkipVerify {
		res.VerifyErr = src.Verify(res.Report, nil)
	}
	return res, nil
}

// config fills the link defaults and merges Mode and the observability and
// fault planes into the engine configuration. The injector reports into the
// same tracer and metrics as the run.
func (o *MigrateOptions) config() migration.Config {
	if o.Bandwidth == 0 {
		o.Bandwidth = GigabitEthernet
	}
	if o.Latency == 0 {
		o.Latency = 100 * time.Microsecond
	}
	cfg := o.Engine
	cfg.Mode = o.Mode
	if o.Tracer != nil {
		cfg.Tracer = o.Tracer
	}
	if o.Metrics != nil {
		cfg.Metrics = o.Metrics
	}
	if o.Ledger != nil {
		cfg.Ledger = o.Ledger
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
		o.Faults.SetObs(cfg.Tracer, cfg.Metrics)
	}
	return cfg
}

// migrate runs one migration of guest g over a fresh link — or, with tok, a
// resume into dest — and returns the wired Source with the Result. A
// fault-aborted run still returns its partial report (recovery section,
// abort reason) and destination beside the error, so callers and tests can
// inspect the rollback.
func migrate(g *Guest, exec GuestExecutor, opts MigrateOptions, cfg migration.Config,
	dest *migration.Destination, tok *migration.ResumeToken) (*migration.Source, *Result, error) {
	if dest == nil {
		dest = migration.NewDestination(g.Dom.NumPages())
	}
	link := netsim.NewLink(g.Dom.Clock(), opts.Bandwidth, opts.Latency)
	src := migration.NewSource(g, link, dest, exec, cfg)
	var report *migration.Report
	var err error
	if tok != nil {
		report, err = src.Resume(tok)
	} else {
		report, err = src.Migrate()
	}
	if report == nil {
		return nil, nil, err
	}
	return src, &Result{Report: report, Destination: dest}, err
}

// The real-clock performance-observability plane (internal/obs/perf). Unlike
// Tracer/Metrics/Ledger — which run on the virtual clock and are part of the
// deterministic contract — the stage profiler measures the simulator itself:
// wall time per engine stage and heap allocation per engine iteration.
// Attach one via EngineConfig.Perf; it never changes a run's Report.
type (
	// StageProfiler attributes the simulator's own wall time to the
	// engine's stage taxonomy (skip policy, wire codec, stop policy,
	// suspension protocol, page sink, lazy fetch, digest audit) and its
	// heap allocation to engine iterations.
	StageProfiler = perf.Profiler
	// StageStats is one stage's accumulated account (exact calls, timed
	// calls, self/total wall time scaled to all calls).
	StageStats = perf.StageStats
	// DeterministicMetrics is the seed-determined metric block shared by
	// javmm-bench snapshots and javmm-analyze -json: a pure function of
	// (seed, config) under the virtual clock, byte-identical across
	// machines.
	DeterministicMetrics = perf.Deterministic
)

// NewStageProfiler returns an empty stage profiler.
func NewStageProfiler() *StageProfiler {
	return perf.NewProfiler()
}

// BenchDeterministic projects a migration result onto the deterministic
// metric block of the perf plane's snapshot schema. Mode is the run's
// effective mode; the Workload and Codec labels are left for the caller,
// which knows what it booted and configured.
func BenchDeterministic(res *Result) DeterministicMetrics {
	d := DeterministicMetrics{
		Mode:               res.EffectiveMode().String(),
		TotalVirtualNs:     int64(res.TotalTime),
		VMDowntimeNs:       int64(res.VMDowntime),
		WorkloadDowntimeNs: int64(res.WorkloadDowntime),
		Iterations:         len(res.Iterations),
		PagesSent:          int64(res.TotalPagesSent),
		BytesOnWire:        int64(res.TotalBytes()),
		EnforcedGC:         res.EnforcedGC > 0,
	}
	var skipped uint64
	for _, it := range res.Iterations {
		skipped += it.PagesSkippedDirty + it.PagesSkippedBitmap + it.PagesSkippedFree
	}
	d.PagesSkipped = int64(skipped)
	if pc := res.PostCopy; pc != nil {
		d.PostCopyFaults = int64(pc.Faults)
	}
	if ic := res.Integrity; ic != nil {
		d.RollingDigest = fmt.Sprintf("%016x", ic.RollingDigest)
	}
	return d
}

// ReplicationReport summarizes a continuous-checkpointing run.
type ReplicationReport = replication.Report

// Replicate runs Remus-style continuous checkpointing of the VM to a backup
// host for the given virtual window (paper §2's RemusDB relative). With
// deprotect set, the applications' skip-over areas — JAVMM's young
// generation — are omitted from every checkpoint (memory deprotection).
func Replicate(vm *VM, window time.Duration, deprotect bool, bandwidth uint64) (*ReplicationReport, error) {
	if bandwidth == 0 {
		bandwidth = GigabitEthernet
	}
	r := &replication.Replicator{
		Dom:    vm.Dom,
		LKM:    vm.Guest.LKM,
		Link:   netsim.NewLink(vm.Clock, bandwidth, 100*time.Microsecond),
		Clock:  vm.Clock,
		Exec:   vm.Driver,
		Backup: migration.NewDestination(vm.Dom.NumPages()),
		Cfg:    replication.Config{Deprotect: deprotect},
	}
	rep, err := r.Protect(window)
	if err != nil {
		return nil, err
	}
	if vm.Driver.Err != nil {
		return nil, fmt.Errorf("javmm: workload failed during replication: %w", vm.Driver.Err)
	}
	return rep, nil
}

// NewCacheVM boots a VM running the memcached-like cache application of the
// §6 extension instead of a JVM workload. The returned app implements
// GuestExecutor; migrate with MigrateCustom.
func NewCacheVM(memBytes, cacheBytes uint64, assisted bool) (*CacheApp, *Guest, *Clock, error) {
	if memBytes == 0 {
		memBytes = 2 << 30
	}
	clock := simclock.New()
	dom := hypervisor.NewDomain("cache-vm", clock, mem.NewVersionStore(memBytes/mem.PageSize), 4)
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	app, err := cacheapp.Launch(cacheapp.Config{
		Guest:      g,
		Clock:      clock,
		CacheBytes: cacheBytes,
		Assisted:   assisted,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return app, g, clock, nil
}

// MigrateCustom migrates a guest driven by any GuestExecutor (e.g. a
// CacheApp, or an application built directly on the framework). required, if
// non-nil, refines the verification predicate: return false for pages whose
// content is legitimately meaningless at the destination (freed frames are
// always exempt).
func MigrateCustom(g *Guest, exec GuestExecutor, opts MigrateOptions, required func(p mem.PFN) bool) (*Result, error) {
	cfg := opts.config()
	g.LKM.SetObs(cfg.Tracer, cfg.Metrics)
	g.Bus.SetTracer(cfg.Tracer)
	src, res, err := migrate(g, exec, opts, cfg, nil, nil)
	if err != nil {
		return res, err
	}
	res.WorkloadDowntime = migration.WorkloadDowntime(res.Report, 0)
	if !opts.SkipVerify {
		res.VerifyErr = src.Verify(res.Report, required)
	}
	return res, nil
}

// PFN re-exports the page frame number type for verification predicates.
type PFN = mem.PFN

// VA re-exports the guest virtual address type.
type VA = mem.VA

// AttachCacheApp launches a cache application inside an existing VM's guest,
// alongside the JVM — the multi-application scenario of §6. The app gets its
// own process and (if assisted) its own netlink registration with the LKM,
// which coordinates concurrent transfer bitmap updates from all applications.
// Run it together with the VM's driver via Multiplex.
func AttachCacheApp(vm *VM, cacheBase VA, cacheBytes uint64, assisted bool) (*CacheApp, error) {
	return cacheapp.Launch(cacheapp.Config{
		Guest:      vm.Guest,
		Clock:      vm.Clock,
		CacheBase:  cacheBase,
		CacheBytes: cacheBytes,
		Assisted:   assisted,
	})
}

// MultiExec time-shares the guest CPUs among several executors, round-robin
// in one-millisecond slices: while one application's slice runs, the others
// are descheduled. It implements GuestExecutor.
type MultiExec struct {
	execs []GuestExecutor
	next  int
}

// Multiplex combines executors into one round-robin MultiExec.
func Multiplex(execs ...GuestExecutor) *MultiExec {
	if len(execs) == 0 {
		panic("javmm: Multiplex needs at least one executor")
	}
	return &MultiExec{execs: execs}
}

// Run implements GuestExecutor.
func (m *MultiExec) Run(d time.Duration) {
	const slice = time.Millisecond
	for d > 0 {
		q := slice
		if d < q {
			q = d
		}
		m.execs[m.next].Run(q)
		m.next = (m.next + 1) % len(m.execs)
		d -= q
	}
}
