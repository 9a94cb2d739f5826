// Package attrib turns a migration Report (plus the optional provenance
// ledger) into an exact accounting of the run: where every tick of
// application-visible downtime went, and what every byte of traffic bought.
//
// The paper's evaluation (§5) argues about exactly these decompositions —
// Figure 9's downtime split between the enforced GC, the final bitmap update
// and the stop-and-copy transfer; Figure 10's per-iteration traffic — so the
// package enforces them as invariants rather than approximations: the
// downtime components sum tick-for-tick to the workload downtime, and the
// per-iteration and per-reason traffic each sum byte-for-byte to the
// Report's total. Reconcile checks all of it and tooling (javmm-analyze, the
// experiments harness) refuses to print numbers that do not add up.
package attrib

import (
	"fmt"
	"time"

	"javmm/internal/migration"
	"javmm/internal/obs/ledger"
)

// Component is one named slice of the downtime breakdown, in the order the
// guest experiences them.
type Component struct {
	Name string
	Dur  time.Duration
}

// IterationPoint is one row of the per-iteration series: traffic and
// dirtying for a single pre-copy round (or the lazy phase of a post-copy
// run, which appears as its single final "iteration").
type IterationPoint struct {
	Index        int
	Start        time.Duration // virtual time at round start
	Duration     time.Duration
	Last         bool
	PagesSent    uint64
	BytesOnWire  uint64
	PagesDirtied uint64
	DirtyRate    float64 // pages/sec dirtied while the round ran
	TransferRate float64 // payload bytes/sec
}

// Attribution is the reconciled accounting of one migration run.
type Attribution struct {
	// Mode is the mode the run started in; EffectiveMode is the semantics it
	// actually completed with (they differ when a failed suspension handshake
	// degraded an assisted run to vanilla pre-copy mid-flight).
	Mode          migration.Mode
	EffectiveMode migration.Mode

	// Downtime components. Their sum is WorkloadDowntime exactly; the
	// non-applicable ones are zero (e.g. EnforcedGC outside JAVMM mode).
	EnforcedGC  time.Duration // pre-suspension minor collection (JAVMM)
	FinalUpdate time.Duration // LKM final transfer-bitmap update (JAVMM)
	StopAndCopy time.Duration // VM paused: last-iteration transfer + handshakes
	Resumption  time.Duration // device reconnect / activation at destination

	// WorkloadDowntime is the application-visible downtime the components
	// decompose; VMDowntime is the subset with the VM actually paused
	// (StopAndCopy + Resumption).
	WorkloadDowntime time.Duration
	VMDowntime       time.Duration

	// FaultStall is cumulative post-switchover degradation from demand
	// faults (post-copy and hybrid runs). It is guest slowdown, not
	// downtime, so it is reported beside the components, never summed into
	// them. Faults is the fetch count behind it.
	FaultStall time.Duration
	Faults     uint64

	// TotalBytes and TotalPages mirror the Report; the iteration series and
	// (when present) the ledger's per-reason buckets both sum to them.
	TotalBytes uint64
	TotalPages uint64

	// Ledger is the per-reason traffic breakdown, valid when HasLedger.
	Ledger    ledger.Summary
	HasLedger bool

	Iterations []IterationPoint

	// Recovery surface (zero/nil on a fault-free run). Retries counts
	// transient-failure re-attempts, BackoffTotal their cumulative backoff;
	// Degraded carries the mid-flight downgrade record when the suspension
	// handshake failed; Aborted marks a run that rolled back to the source.
	Retries      int
	BackoffTotal time.Duration
	Degraded     *migration.Degradation
	Aborted      bool
	AbortReason  string
}

// Build computes the attribution for one finished run. enforcedGC is the
// duration of the pre-suspension collection (zero when none ran); led may be
// nil or inactive, in which case the per-reason breakdown is absent.
//
// The downtime model is migration.WorkloadDowntime: the VM-paused window
// always splits into StopAndCopy and Resumption, and JAVMM runs additionally
// charge the enforced GC and the final bitmap update — work the guest
// performs while nominally running, but which the workload experiences as
// downtime (paper §5.3).
func Build(r *migration.Report, enforcedGC time.Duration, led *ledger.Ledger) *Attribution {
	a := &Attribution{
		Mode:          r.Mode,
		EffectiveMode: r.EffectiveMode(),
		VMDowntime:    r.VMDowntime,
		Resumption:    r.Resumption,
		TotalBytes:    r.TotalBytes(),
		TotalPages:    r.TotalPagesSent,
	}
	a.StopAndCopy = r.VMDowntime - r.Resumption
	a.WorkloadDowntime = migration.WorkloadDowntime(r, enforcedGC)
	// The assisted-mode downtime components are keyed on the EFFECTIVE mode:
	// a run degraded to vanilla pre-copy never performed the final bitmap
	// update, and its enforced GC (if one ran before the downgrade) was paid
	// while the guest workflow was still live — vanilla semantics charge
	// neither (paper §4.2).
	if a.EffectiveMode == migration.ModeAppAssisted {
		a.EnforcedGC = enforcedGC
		a.FinalUpdate = r.FinalUpdate
	}
	if pc := r.PostCopy; pc != nil {
		a.FaultStall = pc.FaultStall
		a.Faults = pc.Faults
	}
	if rec := r.Recovery; rec != nil {
		a.Retries = len(rec.Retries)
		a.BackoffTotal = rec.BackoffTotal
		a.Degraded = rec.Degraded
		a.Aborted = rec.Aborted
		a.AbortReason = rec.AbortReason
	}
	if led.Active() {
		a.Ledger = led.Summary()
		a.HasLedger = true
	}
	for _, it := range r.Iterations {
		a.Iterations = append(a.Iterations, IterationPoint{
			Index:        it.Index,
			Start:        it.Start,
			Duration:     it.Duration,
			Last:         it.Last,
			PagesSent:    it.PagesSent,
			BytesOnWire:  it.BytesOnWire,
			PagesDirtied: it.PagesDirtiedDuring,
			DirtyRate:    it.DirtyRate(),
			TransferRate: it.TransferRate(),
		})
	}
	return a
}

// Components returns the downtime breakdown in guest-experienced order.
// Zero-valued components are included so rows line up across modes.
func (a *Attribution) Components() []Component {
	return []Component{
		{"enforced-gc", a.EnforcedGC},
		{"final-update", a.FinalUpdate},
		{"stop-and-copy", a.StopAndCopy},
		{"resumption", a.Resumption},
	}
}

// DowntimeSum returns the sum of the downtime components. It must equal
// WorkloadDowntime (Reconcile enforces this).
func (a *Attribution) DowntimeSum() time.Duration {
	var t time.Duration
	for _, c := range a.Components() {
		t += c.Dur
	}
	return t
}

// Reconcile checks the attribution against the Report it was built from:
// downtime components must sum tick-for-tick to the workload downtime, and
// the iteration series and ledger buckets must each sum byte-for-byte to the
// Report's traffic. A non-nil error means the instrumentation lied somewhere
// and the numbers must not be presented.
func (a *Attribution) Reconcile(r *migration.Report) error {
	if got := r.EffectiveMode(); a.EffectiveMode != got {
		return fmt.Errorf("attrib: effective mode %v, report says %v", a.EffectiveMode, got)
	}
	if a.Degraded != nil {
		// A degraded run completed with vanilla semantics: the final bitmap
		// update never happened, so charging it would invent downtime.
		if r.FinalUpdate != 0 {
			return fmt.Errorf("attrib: degraded run reports a %v final update; must be 0",
				r.FinalUpdate)
		}
		if a.EnforcedGC != 0 || a.FinalUpdate != 0 {
			return fmt.Errorf("attrib: degraded run charges assisted components (gc=%v update=%v)",
				a.EnforcedGC, a.FinalUpdate)
		}
	}
	if got := a.DowntimeSum(); got != a.WorkloadDowntime {
		return fmt.Errorf("attrib: downtime components sum to %v, workload downtime is %v",
			got, a.WorkloadDowntime)
	}
	if got := a.StopAndCopy + a.Resumption; got != a.VMDowntime {
		return fmt.Errorf("attrib: paused components sum to %v, VM downtime is %v",
			got, a.VMDowntime)
	}
	if rb := r.TotalBytes(); a.TotalBytes != rb {
		return fmt.Errorf("attrib: total bytes %d, report says %d", a.TotalBytes, rb)
	}
	var iterBytes, iterPages uint64
	for _, it := range a.Iterations {
		iterBytes += it.BytesOnWire
		iterPages += it.PagesSent
	}
	if iterBytes != a.TotalBytes {
		return fmt.Errorf("attrib: iteration series sums to %d bytes, total is %d",
			iterBytes, a.TotalBytes)
	}
	if iterPages != a.TotalPages {
		return fmt.Errorf("attrib: iteration series sums to %d pages, total is %d",
			iterPages, a.TotalPages)
	}
	if a.HasLedger {
		if a.Ledger.TotalBytes != a.TotalBytes {
			return fmt.Errorf("attrib: ledger carries %d bytes, report %d",
				a.Ledger.TotalBytes, a.TotalBytes)
		}
		if a.Ledger.TotalSends != a.TotalPages {
			return fmt.Errorf("attrib: ledger carries %d sends, report %d pages",
				a.Ledger.TotalSends, a.TotalPages)
		}
		var reasonBytes uint64
		for _, rt := range a.Ledger.SendsByReason {
			reasonBytes += rt.Bytes
		}
		if reasonBytes != a.TotalBytes {
			return fmt.Errorf("attrib: reason buckets sum to %d bytes, total is %d",
				reasonBytes, a.TotalBytes)
		}
	}
	return nil
}
