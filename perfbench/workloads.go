package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"javmm"
	"javmm/internal/jvm"
	"javmm/internal/migration"
)

// sizes scales every workload: the full sizes in a benchmark run, small
// ones in the benchmark's own tests.
type sizes struct {
	memBytes uint64
	warmup   time.Duration
}

// fullSizes are the paper's testbed VM (2 GiB, 4 vCPUs) with a 60 s virtual
// warmup before each migration.
var fullSizes = sizes{memBytes: 2 << 30, warmup: 60 * time.Second}

const vcpus = 4

// planeSet selects the observability planes attached to a migration.
type planeSet uint8

const (
	planeTrace planeSet = 1 << iota
	planeMetrics
	planeLedger
	planePerf
	allPlanes = planeTrace | planeMetrics | planeLedger | planePerf
)

// cell is one single-VM operation: boot a fresh VM, warm it up (set-up),
// then migrate it (the timed phase).
type cell struct {
	profile string
	mode    javmm.Mode
	codec   string // raw | compress | delta
	planes  planeSet
}

func (c cell) name() string {
	n := fmt.Sprintf("%s/%s/%s", c.profile, c.mode, c.codec)
	if c.planes == allPlanes {
		n += "+obs"
	}
	return n
}

// modeMatrixCells is the paper's Figure 10 comparison (all nine Table-1
// profiles under xen and javmm), the post-copy and hybrid engines on the
// largest and a small young generation, and the two codec chains on the
// flagship javmm/derby cell.
func modeMatrixCells() []cell {
	var cells []cell
	for _, p := range javmm.WorkloadNames() {
		cells = append(cells,
			cell{profile: p, mode: javmm.ModeXen, codec: "raw"},
			cell{profile: p, mode: javmm.ModeJAVMM, codec: "raw"})
	}
	for _, p := range []string{"derby", "crypto"} {
		cells = append(cells,
			cell{profile: p, mode: javmm.ModePostCopy, codec: "raw"},
			cell{profile: p, mode: javmm.ModeHybrid, codec: "raw"})
	}
	return append(cells,
		cell{profile: "derby", mode: javmm.ModeJAVMM, codec: "compress"},
		cell{profile: "derby", mode: javmm.ModeJAVMM, codec: "delta"})
}

// observedCells are derby and crypto under xen and javmm with every plane a
// traced, metered and stage-profiled javmm-migrate run attaches.
func observedCells() []cell {
	var cells []cell
	for _, p := range []string{"derby", "crypto"} {
		for _, m := range []javmm.Mode{javmm.ModeXen, javmm.ModeJAVMM} {
			cells = append(cells, cell{profile: p, mode: m, codec: "raw", planes: allPlanes})
		}
	}
	return cells
}

// opRecord is an operation's deterministic outcome: a pure function of the
// seed and the workload's inputs, compared exactly against the recorded
// expectations and across repetitions.
type opRecord struct {
	Op              string                       `json:"op"`
	Det             []javmm.DeterministicMetrics `json:"det"`
	SimMigrationNs  int64                        `json:"sim_migration_ns"`
	SimDowntimeNs   int64                        `json:"sim_downtime_ns"`
	SimTrafficBytes int64                        `json:"sim_traffic_bytes"`
}

// sample is one operation's measurements in one pass.
type sample struct {
	rec        opRecord
	setup      time.Duration // host time before the timed phase
	wall       time.Duration // host time of the timed phase
	migrate    time.Duration // host time inside javmm.Migrate alone
	allocBytes uint64        // heap bytes allocated in the timed phase
	migrations int           // operations counted: migrations or plan moves

	// Counts the traced run turns into per-layer metrics.
	writes      uint64        // growth of Domain.Writes() after boot
	minorGCs    int           // minor collections after boot
	vmPages     uint64        // VM pages (the send-amplification base)
	vmVirt      time.Duration // VM-virtual time simulated after boot
	traceEvents int           // events the tracer plane recorded
	plan        *javmm.PlanResult
}

// runCell executes one single-VM operation. With rec non-nil it records a
// span at every layer boundary, wraps the VM's executor, and verifies the
// destination itself (with Migrate's own predicate) so the check is timed
// on its own.
func runCell(c cell, seed int64, sz sizes, rec *recorder) (sample, error) {
	var s sample
	prof, err := javmm.Workload(c.profile)
	if err != nil {
		return s, err
	}
	engine := javmm.EngineConfig{}
	switch c.codec {
	case "raw":
	case "compress":
		engine.Compress = true
	case "delta":
		engine.Compress = true
		engine.DeltaCompression = true
	default:
		return s, fmt.Errorf("unknown codec %q", c.codec)
	}

	runtime.GC()
	rec.nextOp()
	opSpan := rec.begin(spanOp)
	defer rec.end(opSpan)

	start := time.Now()
	sp := rec.begin(spanBoot)
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes: sz.memBytes,
		VCPUs:    vcpus,
		Profile:  prof,
		Assisted: c.mode == javmm.ModeJAVMM,
		Seed:     seed,
	})
	rec.end(sp)
	if err != nil {
		return s, fmt.Errorf("boot: %w", err)
	}
	virt0, writes0, gcs0 := vm.Clock.Now(), vm.Dom.Writes(), minorGCs(vm)
	sp = rec.begin(spanWarmup)
	vm.Driver.Run(sz.warmup)
	rec.end(sp)
	if vm.Driver.Err != nil {
		return s, fmt.Errorf("warmup: %w", vm.Driver.Err)
	}
	s.setup = time.Since(start)

	opts := javmm.MigrateOptions{Mode: c.mode, Engine: engine}
	var tracer *javmm.Tracer
	var reg *javmm.Metrics
	var led *javmm.Ledger
	if c.planes&planeTrace != 0 {
		tracer = javmm.NewTracer(vm.Clock)
		opts.Tracer = tracer
	}
	if c.planes&planeMetrics != 0 {
		reg = javmm.NewMetrics(vm.Clock)
		opts.Metrics = reg
	}
	if c.planes&planeLedger != 0 {
		led = javmm.NewLedger()
		opts.Ledger = led
	}
	if c.planes&planePerf != 0 {
		opts.Engine.Perf = javmm.NewStageProfiler()
	}
	if rec != nil {
		opts.Executor = &execSpans{drv: vm.Driver, rec: rec}
		opts.SkipVerify = true
	}

	a0 := heapAllocs()
	start = time.Now()
	sp = rec.begin(spanMigrate)
	res, err := javmm.Migrate(vm, opts)
	rec.end(sp)
	s.migrate = time.Since(start)
	if err != nil {
		return s, fmt.Errorf("migrate: %w", err)
	}
	if rec != nil && res.PostCopy == nil {
		sp = rec.begin(spanVerify)
		res.VerifyErr = migration.VerifyMigration(vm.Dom.Store(), res.Destination.Store,
			res.FinalTransfer, vm.Guest.Frames.Allocated)
		rec.end(sp)
	}
	if res.VerifyErr != nil {
		return s, fmt.Errorf("destination verification: %w", res.VerifyErr)
	}
	if c.planes&planeLedger != 0 {
		sp = rec.begin(spanAttribute)
		_, err = javmm.Attribute(res, led)
		rec.end(sp)
		if err != nil {
			return s, fmt.Errorf("attribute: %w", err)
		}
	}
	if tracer != nil || reg != nil {
		sp = rec.begin(spanExport)
		err = export(tracer, reg)
		rec.end(sp)
		if err != nil {
			return s, err
		}
	}
	s.wall = time.Since(start)
	s.allocBytes = heapAllocs() - a0

	det := javmm.BenchDeterministic(res)
	det.Workload, det.Codec = c.profile, c.codec
	s.rec = opRecord{
		Op:              c.name(),
		Det:             []javmm.DeterministicMetrics{det},
		SimMigrationNs:  int64(res.TotalTime),
		SimDowntimeNs:   int64(res.WorkloadDowntime),
		SimTrafficBytes: int64(res.TotalBytes()),
	}
	s.migrations = 1
	s.writes = vm.Dom.Writes() - writes0
	s.minorGCs = minorGCs(vm) - gcs0
	s.vmPages = vm.Dom.NumPages()
	s.vmVirt = vm.Clock.Now() - virt0
	if tracer != nil {
		s.traceEvents = tracer.Len()
	}
	return s, nil
}

// export writes the trace (Chrome format, javmm-migrate's default) and the
// metrics snapshot to in-memory buffers.
func export(t *javmm.Tracer, m *javmm.Metrics) error {
	var buf bytes.Buffer
	if t != nil {
		if err := javmm.WriteTraceChrome(&buf, t.Events()); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
	}
	if m != nil {
		if err := javmm.WriteMetricsJSON(&buf, m.Snapshot()); err != nil {
			return fmt.Errorf("export metrics: %w", err)
		}
	}
	return nil
}

func minorGCs(vm *javmm.VM) int {
	n := 0
	for _, st := range vm.Heap.GCHistory() {
		if st.Kind == jvm.MinorGC {
			n++
		}
	}
	return n
}

// execSpans wraps the VM's workload driver as the migration's executor and
// records one span per call. It forwards write throttling so attaching it
// never changes a run.
type execSpans struct {
	drv interface {
		Run(time.Duration)
		SetThrottle(float64)
	}
	rec *recorder
}

func (e *execSpans) Run(d time.Duration) {
	sp := e.rec.begin(spanExec)
	e.drv.Run(d)
	e.rec.end(sp)
}

func (e *execSpans) SetThrottle(f float64) { e.drv.SetThrottle(f) }

// evacuateVMs are the six VMs the evacuate plan moves off host src.
var evacuateVMs = []string{"derby", "crypto", "compiler", "mpeg", "xml", "sunflow"}

// evacuatePolicy is the evacuate plan's admission policy; the correctness
// gate re-checks the executed windows against it.
var evacuatePolicy = javmm.AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 2}

// clusterText declares the evacuate topology: a source host with the six
// VMs, each on a 30 s activity cycle with staggered quiet windows, and two
// destinations behind the default gigabit backbone.
func clusterText(sz sizes) string {
	var b strings.Builder
	b.WriteString("host src ram 64G\nhost d1 ram 64G\nhost d2 ram 64G\n")
	for i, wl := range evacuateVMs {
		fmt.Fprintf(&b, "vm %s on src workload %s mem %dM cycle 30s/10s/15s/0.1/%ds\n",
			wl, wl, sz.memBytes>>20, 5*i)
	}
	return b.String()
}

// setupReps is how many times runEvacuate builds its inputs.
const setupReps = 51

// runEvacuate executes the evacuate plan once: set-up builds the cluster
// and the plan, the timed phase is one Orchestrate call (which boots and
// warms the VMs itself). Destination d1 crashes for good, so the healing
// layer must relocate the moves that chose it.
func runEvacuate(seed int64, sz sizes, rec *recorder) (sample, error) {
	var s sample
	runtime.GC()
	rec.nextOp()
	opSpan := rec.begin(spanOp)
	defer rec.end(opSpan)

	// Building the inputs takes microseconds, so it is repeated and the
	// median build reported.
	var cluster *javmm.Cluster
	var plan *javmm.MigrationPlan
	builds := make([]float64, setupReps)
	for i := range builds {
		start := time.Now()
		var err error
		if cluster, err = javmm.ParseCluster(clusterText(sz)); err != nil {
			return s, err
		}
		if plan, err = javmm.ParseMigrationPlan("evacuate host src"); err != nil {
			return s, err
		}
		builds[i] = float64(time.Since(start))
	}
	s.setup = time.Duration(median(builds))

	opts := javmm.OrchestratorOptions{
		Cluster:   cluster,
		Plan:      plan,
		Mode:      javmm.ModeJAVMM,
		Seed:      seed,
		Ordering:  javmm.OrderCycleAware,
		Admission: evacuatePolicy,
		Retry:     javmm.RetryPolicy{Enabled: true, Seed: seed},
		Warmup:    sz.warmup,
		FaultPlan: javmm.FaultPlan{{Site: javmm.FaultHostCrash, For: time.Hour, Host: "d1"}},
	}
	a0 := heapAllocs()
	start := time.Now()
	sp := rec.begin(spanOrchestrate)
	res, err := javmm.Orchestrate(opts)
	rec.end(sp)
	s.wall = time.Since(start)
	s.allocBytes = heapAllocs() - a0
	if err != nil {
		return s, fmt.Errorf("orchestrate: %w", err)
	}
	if err := checkPlan(res); err != nil {
		return s, err
	}

	s.rec = opRecord{Op: "evacuate", SimMigrationNs: int64(res.MakeSpan)}
	var last time.Duration
	for i := range res.Moves {
		m := &res.Moves[i]
		det := javmm.BenchDeterministic(&javmm.Result{
			Report:           m.Report,
			WorkloadDowntime: m.WorkloadDowntime,
			EnforcedGC:       m.EnforcedGC,
		})
		det.Workload, det.Codec = m.Name, "raw"
		s.rec.Det = append(s.rec.Det, det)
		s.rec.SimDowntimeNs += int64(m.WorkloadDowntime)
		if m.EndAt > last {
			last = m.EndAt
		}
	}
	for _, f := range res.Fabric.Flows {
		s.rec.SimTrafficBytes += int64(f.BytesSent)
	}
	s.migrations = len(res.Moves)
	// Every guest runs from boot until the plan's last move completes.
	s.vmVirt = time.Duration(len(res.Moves)) * last
	if rec != nil {
		s.plan = res // only the traced pass reads the plan's layers
	}
	return s, nil
}

// checkPlan is the evacuate correctness gate: every move relocated or
// completed and verified, bytes conserved on every link, and the executed
// windows inside the admission policy.
func checkPlan(res *javmm.PlanResult) error {
	for i := range res.Moves {
		m := &res.Moves[i]
		if m.Err != nil {
			return fmt.Errorf("move %s: %w", m.Name, m.Err)
		}
		if m.VerifyErr != nil {
			return fmt.Errorf("move %s: destination verification: %w", m.Name, m.VerifyErr)
		}
		switch m.Outcome {
		case javmm.MoveCompleted, javmm.MoveRetried, javmm.MoveRelocated:
		default:
			return fmt.Errorf("move %s: outcome %v", m.Name, m.Outcome)
		}
	}
	if err := res.Fabric.VerifyConservation(); err != nil {
		return err
	}
	return javmm.VerifyAdmission(res.Moves, evacuatePolicy)
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
