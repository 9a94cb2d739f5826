package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/migration"
	"javmm/internal/obs/sla"
	"javmm/internal/workload"
)

// orchCluster builds the canonical test topology: one host to evacuate and
// two destination hosts in another rack, all on one shared backbone.
func orchCluster(n int, withCycles bool) *Cluster {
	c := &Cluster{
		Hosts: []HostSpec{
			{Name: "src", Rack: "a", RAMBytes: 64 << 30},
			{Name: "d1", Rack: "b", RAMBytes: 64 << 30},
			{Name: "d2", Rack: "b", RAMBytes: 64 << 30},
		},
	}
	wl := []string{"compress", "crypto", "mpeg", "serial"}
	for i := 0; i < n; i++ {
		v := VMSpec{
			Name:     fmt.Sprintf("vm%d", i),
			Host:     "src",
			Workload: wl[i%len(wl)],
			MemBytes: 2 << 30,
		}
		if withCycles {
			v.Cycle = workload.CycleSpec{
				Period:      20 * time.Second,
				QuietStart:  8 * time.Second,
				QuietLen:    8 * time.Second,
				QuietFactor: 0.1,
				Phase:       time.Duration(i) * 3 * time.Second,
			}
		}
		c.VMs = append(c.VMs, v)
	}
	return c
}

func evacuatePlan(t *testing.T) *Plan {
	t.Helper()
	p, err := ParseMigrationPlan("evacuate host src")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func orchOpts(t *testing.T, n int, mode migration.Mode, ord Ordering) OrchestratorOptions {
	t.Helper()
	return OrchestratorOptions{
		Cluster:         orchCluster(n, true),
		Plan:            evacuatePlan(t),
		Mode:            mode,
		Seed:            7,
		Ordering:        ord,
		Admission:       AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 2},
		Warmup:          5 * time.Second,
		DecisionQuantum: 250 * time.Millisecond,
		QuietHorizon:    30 * time.Second,
		SLA:             &sla.Model{DowntimePenaltyPerSec: 1, DipPenaltyPerOp: 0.001},
	}
}

// compareMoves asserts byte-identity of the replayed plan: per-VM Reports,
// the full scheduling record, fabric accounting and fleet cost.
func comparePlans(t *testing.T, a, b *PlanResult) {
	t.Helper()
	if len(a.Moves) != len(b.Moves) {
		t.Fatalf("move counts diverge: %d vs %d", len(a.Moves), len(b.Moves))
	}
	for i := range a.Moves {
		x, y := &a.Moves[i], &b.Moves[i]
		if x.Err != nil || y.Err != nil {
			t.Fatalf("move %s errored: %v / %v", x.Name, x.Err, y.Err)
		}
		if x.VerifyErr != nil || y.VerifyErr != nil {
			t.Fatalf("move %s failed verification: %v / %v", x.Name, x.VerifyErr, y.VerifyErr)
		}
		if !reflect.DeepEqual(x.Report, y.Report) {
			t.Fatalf("move %s reports diverge between runs", x.Name)
		}
		if x.StartAt != y.StartAt || x.EndAt != y.EndAt ||
			x.EligibleAt != y.EligibleAt || x.LaunchedAt != y.LaunchedAt {
			t.Fatalf("move %s timing diverges: [%v %v %v %v] vs [%v %v %v %v]",
				x.Name, x.EligibleAt, x.LaunchedAt, x.StartAt, x.EndAt,
				y.EligibleAt, y.LaunchedAt, y.StartAt, y.EndAt)
		}
		if x.Deferrals != y.Deferrals || x.QuietLaunch != y.QuietLaunch || x.Forced != y.Forced {
			t.Fatalf("move %s scheduling record diverges: (%d %v %v) vs (%d %v %v)",
				x.Name, x.Deferrals, x.QuietLaunch, x.Forced,
				y.Deferrals, y.QuietLaunch, y.Forced)
		}
		if x.WorkloadDowntime != y.WorkloadDowntime {
			t.Fatalf("move %s downtime diverges: %v vs %v", x.Name, x.WorkloadDowntime, y.WorkloadDowntime)
		}
		if !reflect.DeepEqual(x.SLACost, y.SLACost) {
			t.Fatalf("move %s SLA cost diverges", x.Name)
		}
		if !reflect.DeepEqual(x.Samples, y.Samples) {
			t.Fatalf("move %s workload samples diverge", x.Name)
		}
	}
	if !reflect.DeepEqual(a.Fabric, b.Fabric) {
		t.Fatalf("fabric reports diverge:\n%+v\n%+v", a.Fabric, b.Fabric)
	}
	if a.MakeSpan != b.MakeSpan {
		t.Fatalf("makespan diverges: %v vs %v", a.MakeSpan, b.MakeSpan)
	}
	if !reflect.DeepEqual(a.SLA, b.SLA) {
		t.Fatalf("fleet costs diverge:\n%+v\n%+v", a.SLA, b.SLA)
	}
}

// Satellite 1 (property): orchestrator determinism — same seed and plan
// replay to byte-identical per-VM Reports, scheduling records and
// FleetCost, across 2/4/8-VM plans in all four modes (and all three
// orderings, rotating). The test binary runs under -race in CI.
func TestOrchestratorDeterministic(t *testing.T) {
	modes := []migration.Mode{
		migration.ModeVanilla, migration.ModeAppAssisted,
		migration.ModePostCopy, migration.ModeHybrid,
	}
	orderings := []Ordering{OrderNaive, OrderAdmission, OrderCycleAware}
	for _, n := range []int{2, 4, 8} {
		for mi, mode := range modes {
			ord := orderings[(n/2+mi)%len(orderings)]
			t.Run(fmt.Sprintf("%dvm-%s-%s", n, mode, ord), func(t *testing.T) {
				r1, err := Orchestrate(orchOpts(t, n, mode, ord))
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Orchestrate(orchOpts(t, n, mode, ord))
				if err != nil {
					t.Fatal(err)
				}
				comparePlans(t, r1, r2)
			})
		}
	}
}

// The merged fleet trace replays byte-identically too (one representative
// mode per plan size; full-matrix report identity is covered above).
func TestOrchestratorMergedTraceByteIdentical(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%dvm", n), func(t *testing.T) {
			var traces [2][]byte
			for run := range traces {
				opts := orchOpts(t, n, migration.ModeAppAssisted, OrderCycleAware)
				opts.Collect = true
				res, err := Orchestrate(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Obs == nil {
					t.Fatal("Collect run returned no collector")
				}
				var buf bytes.Buffer
				if err := res.Obs.WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				traces[run] = append([]byte(nil), buf.Bytes()...)
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Fatal("merged Chrome traces differ between same-seed plan replays")
			}
		})
	}
}

// Scheduler edge case: an empty plan is a successful no-op.
func TestOrchestratorEmptyPlan(t *testing.T) {
	c := orchCluster(2, false)
	p, err := ParseMigrationPlan("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Orchestrate(OrchestratorOptions{Cluster: c, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 || res.MakeSpan != 0 {
		t.Fatalf("empty plan produced %d moves, makespan %v", len(res.Moves), res.MakeSpan)
	}
	// No plan at all behaves the same.
	if res, err = Orchestrate(OrchestratorOptions{Cluster: c}); err != nil || len(res.Moves) != 0 {
		t.Fatalf("nil plan: %v, %d moves", err, len(res.Moves))
	}
}

// Scheduler edge case: a single-host cluster cannot evacuate — the compile
// fails with the typed admission error, not a crash or a hang.
func TestOrchestratorSingleHostCluster(t *testing.T) {
	c, err := ParseCluster("host only ram 8G; vm v on only mem 1G")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseMigrationPlan("evacuate host only")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Orchestrate(OrchestratorOptions{Cluster: c, Plan: p})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("error %v (%T), want *AdmissionError", err, err)
	}
	if adm.Resource != "destination" || adm.VM != "v" {
		t.Fatalf("AdmissionError = %+v", adm)
	}
}

// Scheduler edge case: a migration predicted never to converge (derby's
// full-speed dirty rate exceeds the backbone) is deferred — but the wait is
// bounded by QuietHorizon, after which it launches forced. Deferral, not
// starvation.
func TestOrchestratorNonConvergingDeferralBounded(t *testing.T) {
	c := &Cluster{
		Hosts: []HostSpec{
			{Name: "src", RAMBytes: 8 << 30},
			{Name: "dst", RAMBytes: 8 << 30},
		},
		// derby at full speed dirties ~296 MB/s against a 117 MB/s
		// backbone: EstimateETA says non-converging, every tick. No cycle,
		// so no quiet window ever opens.
		VMs: []VMSpec{{Name: "hot", Host: "src", Workload: "derby", MemBytes: 2 << 30}},
	}
	horizon := 10 * time.Second
	opts := OrchestratorOptions{
		Cluster:         c,
		Plan:            mustPlan(t, "evacuate host src"),
		Mode:            migration.ModeAppAssisted,
		Seed:            3,
		Ordering:        OrderCycleAware,
		Warmup:          5 * time.Second,
		DecisionQuantum: 250 * time.Millisecond,
		QuietHorizon:    horizon,
	}
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Moves[0]
	if m.Err != nil {
		t.Fatalf("forced migration failed: %v", m.Err)
	}
	if m.VerifyErr != nil {
		t.Fatalf("forced migration image diverged: %v", m.VerifyErr)
	}
	if m.Deferrals == 0 {
		t.Fatal("non-converging move was never deferred")
	}
	if !m.Forced {
		t.Fatal("bounded-wait launch not marked Forced")
	}
	waited := m.LaunchedAt - m.EligibleAt
	if waited < horizon {
		t.Fatalf("launched after %v, before the %v horizon", waited, horizon)
	}
	if max := horizon + 2*opts.DecisionQuantum; waited > max {
		t.Fatalf("starved: launched after %v, bound %v", waited, max)
	}
}

func mustPlan(t *testing.T, text string) *Plan {
	t.Helper()
	p, err := ParseMigrationPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Admission control holds under load: a 6-VM evacuation behind
// MaxPerLink=2 never carries more than two concurrent migrations on the
// backbone (VerifyAdmission over the engine windows), while naive ordering
// provably over-commits the same plan.
func TestOrchestratorAdmissionNeverOvercommits(t *testing.T) {
	policy := AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 2}
	opts := orchOpts(t, 6, migration.ModeAppAssisted, OrderAdmission)
	opts.Admission = policy
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Moves {
		if res.Moves[i].Err != nil {
			t.Fatalf("move %s failed: %v", res.Moves[i].Name, res.Moves[i].Err)
		}
	}
	if err := VerifyAdmission(res.Moves, policy); err != nil {
		t.Fatal(err)
	}
	// The checker has teeth: the same windows cannot fit under a cap of 1.
	if err := VerifyAdmission(res.Moves, AdmissionPolicy{MaxPerLink: 1}); err == nil {
		t.Fatal("6 migrations behind a 2-cap verified against a 1-cap")
	}
	deferred := 0
	for i := range res.Moves {
		if res.Moves[i].Deferrals > 0 {
			deferred++
		}
	}
	if deferred == 0 {
		t.Fatal("a 6-VM plan behind a 2-cap never deferred anything")
	}

	// Naive ordering launches everything at once and over-commits.
	opts = orchOpts(t, 6, migration.ModeAppAssisted, OrderNaive)
	res, err = Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAdmission(res.Moves, policy); err == nil {
		t.Fatal("naive 6-VM launch did not over-commit a 2-cap link")
	}
}

// Cycle-aware launches land inside quiet windows (or are explicitly marked
// forced), and at least one launch actually exploits a quiet window.
func TestOrchestratorCycleAwareQuietLaunches(t *testing.T) {
	res, err := Orchestrate(orchOpts(t, 4, migration.ModeVanilla, OrderCycleAware))
	if err != nil {
		t.Fatal(err)
	}
	quiet := 0
	for i := range res.Moves {
		m := &res.Moves[i]
		if m.Err != nil {
			t.Fatalf("move %s failed: %v", m.Name, m.Err)
		}
		if !m.QuietLaunch && !m.Forced {
			t.Fatalf("move %s launched outside its quiet window without being forced (at %v)",
				m.Name, m.LaunchedAt)
		}
		if m.QuietLaunch {
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("no launch used a quiet window")
	}
}

// ResumeAborted must run fault-free: every layer the launch wired the
// injector into — the netlink bus included — is detached before the resume,
// so a netlink rule that is still live logs nothing, and the resumed image
// verifies.
func TestOrchestratorResumeAbortedDetachesEveryLayer(t *testing.T) {
	opts := orchOpts(t, 1, migration.ModeAppAssisted, OrderAdmission)
	opts.Cluster = orchCluster(1, false)
	opts.Engine.Recovery.EnableResume = true
	opts.FaultPlan = faults.Plan{
		{Site: faults.SiteDestCrash, At: 2 * time.Second},
		{Site: faults.SiteNetlinkDelay, Count: 1 << 30, Delay: time.Millisecond},
	}
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Moves[0]
	if !errors.Is(m.Err, migration.ErrDestinationLost) {
		t.Fatalf("move error = %v, want a lost destination", m.Err)
	}
	inj := res.faults
	netlinkFired := 0
	for _, e := range inj.Events() {
		if e.Site == faults.SiteNetlinkDelay {
			netlinkFired++
		}
	}
	if netlinkFired == 0 {
		t.Fatal("the netlink rule never fired during the aborted run")
	}
	before := len(inj.Events())
	rep, err := res.ResumeAborted(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resume == nil {
		t.Fatal("resumed run carries no resume section")
	}
	if got := inj.Events()[before:]; len(got) != 0 {
		t.Fatalf("injector fired %d faults during the resume (first: %+v)", len(got), got[0])
	}
}
