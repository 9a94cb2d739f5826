package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/migration"
	"javmm/internal/obs/sla"
	"javmm/internal/workload"
)

// retryOffCluster is the pinned retry-off topology: four cycling 1 GiB VMs
// on one source, two destinations on the synthesized backbone.
func retryOffCluster() *Cluster {
	c := &Cluster{Hosts: []HostSpec{
		{Name: "src", RAMBytes: 64 << 30},
		{Name: "d1", RAMBytes: 64 << 30},
		{Name: "d2", RAMBytes: 64 << 30},
	}}
	for i, wl := range []string{"mpeg", "crypto", "mpeg", "crypto"} {
		c.VMs = append(c.VMs, VMSpec{
			Name: fmt.Sprintf("vm%d", i), Host: "src", Workload: wl, MemBytes: 1 << 30,
			Cycle: workload.CycleSpec{
				Period: 20 * time.Second, QuietStart: 8 * time.Second,
				QuietLen: 8 * time.Second, QuietFactor: 0.1,
				Phase: time.Duration(i) * 5 * time.Second,
			},
		})
	}
	return c
}

// retryOffDigest reduces a retry-off plan to what a one-attempt run must
// reproduce exactly: every move's scheduling record, timing bounds, outcome
// and error text, the report totals and SLA cost, the makespan, and the
// collected fleet's Prometheus page (whose time-weighted gauges move if the
// plan clock runs past the last completion). It returns the digest and the
// record it was taken over.
func retryOffDigest(t *testing.T, res *PlanResult) (string, string) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d\n", res.MakeSpan)
	for i := range res.Moves {
		m := &res.Moves[i]
		fmt.Fprintf(&b, "%s %s->%s eligible=%d launched=%d defer=%d quiet=%v forced=%v start=%d end=%d outcome=%s err=%v verify=%v\n",
			m.Name, m.From, m.To, m.EligibleAt, m.LaunchedAt, m.Deferrals,
			m.QuietLaunch, m.Forced, m.StartAt, m.EndAt, m.Outcome, m.Err, m.VerifyErr)
		if m.Report != nil {
			fmt.Fprintf(&b, "  total=%d bytes=%d downtime=%d workload=%d\n",
				m.Report.TotalTime, m.Report.TotalBytes(), m.Report.VMDowntime, m.WorkloadDowntime)
		}
		if m.SLACost != nil {
			fmt.Fprintf(&b, "  sla=%v\n", m.SLACost.Total)
		}
	}
	var prom bytes.Buffer
	if err := res.Obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "prom=%x\n", sha256.Sum256(prom.Bytes()))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), b.String()
}

// TestOrchestratorRetryOffPinned pins the one-attempt-per-move orchestrator
// (RetryPolicy disabled) to fixed digests under all three orderings and
// under a crashed destination: the scheduling record, makespan and
// Prometheus export of a collected run must not move.
func TestOrchestratorRetryOffPinned(t *testing.T) {
	cases := []struct {
		name     string
		ordering Ordering
		faults   faults.Plan
		want     string
	}{
		{"naive", OrderNaive, nil, "e00afa71a1920fa4b0e4f1d9163acb72a173cb4b299c0916012c5b0e7cacd708"},
		{"admission", OrderAdmission, nil, "e95fa0cd795a9b2ae09f3c058e4f677de062377d6e9702032e9b97c2fe0c539d"},
		{"cycle-aware", OrderCycleAware, nil, "b0b865e207ce13d5ad9998bba7d804965de431ee2ba4ab099a5c82ed4ffcce48"},
		{"admission-crash-d1", OrderAdmission, faults.Plan{
			{Site: faults.SiteHostCrash, For: time.Hour, Host: "d1"},
		}, "d1751a4ecae042aec4dd3b44bc0d8cc4970513544b14b378d8f241581ff2b35f"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Orchestrate(OrchestratorOptions{
				Cluster:         retryOffCluster(),
				Plan:            mustPlan(t, "evacuate host src"),
				Mode:            migration.ModeAppAssisted,
				Seed:            5,
				Ordering:        tc.ordering,
				Admission:       AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 1},
				Warmup:          5 * time.Second,
				DecisionQuantum: 250 * time.Millisecond,
				QuietHorizon:    15 * time.Second,
				FaultPlan:       tc.faults,
				Collect:         true,
				SLA:             &sla.Model{DowntimePenaltyPerSec: 1, DipPenaltyPerOp: 0.001},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, rec := retryOffDigest(t, res); got != tc.want {
				t.Fatalf("retry-off digest = %s, want %s; record:\n%s", got, tc.want, rec)
			}
		})
	}
}
