// Command javmm-bench is the repo's performance-trajectory harness. It runs
// a fixed matrix of end-to-end migration scenarios plus a set of hot-loop
// kernels and emits a schema-versioned snapshot (BENCH_NNNN.json) that
// splits deterministic metrics (seed-determined, byte-identical across runs
// and machines) from timing metrics (real-clock, machine-dependent).
//
// Usage:
//
//	javmm-bench -out BENCH_0002.json            # produce a snapshot
//	javmm-bench -compare BENCH_0001.json new.json
//	javmm-bench -compare -report-only old.json new.json   # CI: drift fatal, timing advisory
//	javmm-bench -quick -out /tmp/s.json         # reduced matrix for smoke tests
//	javmm-bench -cpuprofile cpu.pprof -out s.json
//
// The comparator exits non-zero on any deterministic-metric drift (always,
// even with -report-only: a deterministic change is a behavior change, not
// noise) and on timing regressions past per-metric thresholds (unless
// -report-only).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"javmm/internal/obs/perf"
)

func main() {
	var o options
	flag.StringVar(&o.Out, "out", "", "write the snapshot to this file (default stdout)")
	flag.Int64Var(&o.Seed, "seed", 1, "deterministic seed for the whole matrix")
	flag.DurationVar(&o.Warmup, "warmup", 60*time.Second, "virtual warmup before each migration")
	flag.Uint64Var(&o.MemMiB, "mem", 2048, "VM memory in MiB for the e2e scenarios")
	flag.IntVar(&o.Runs, "runs", 3, "timed repetitions per scenario/kernel (medians reported)")
	flag.StringVar(&o.Label, "label", "", "free-form label recorded in the snapshot")
	flag.BoolVar(&o.Quick, "quick", false, "reduced matrix and tiny kernel budgets (for smoke tests)")
	flag.BoolVar(&o.Compare, "compare", false, "compare two snapshots: javmm-bench -compare old.json new.json")
	flag.BoolVar(&o.ReportOnly, "report-only", false, "with -compare: timing regressions are advisory (deterministic drift still fails)")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the harness run to this file")
	flag.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()
	o.Args = flag.Args()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "javmm-bench:", err)
		os.Exit(1)
	}
}

// errCompareFailed reports a comparison that must fail the process.
var errCompareFailed = errors.New("snapshot comparison failed")

// options collects every CLI knob; run is pure in it so tests drive the full
// command without a process boundary.
type options struct {
	Out        string
	Seed       int64
	Warmup     time.Duration
	MemMiB     uint64
	Runs       int
	Label      string
	Quick      bool
	Compare    bool
	ReportOnly bool
	CPUProfile string
	MemProfile string
	Args       []string // positional: -compare old.json new.json
}

func run(o options, out io.Writer) error {
	if o.Compare {
		return runCompare(o, out)
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.Quick {
		// Smoke settings: short warmup, minimal repetitions, tiny kernel
		// budgets. Quick snapshots are only comparable to other quick
		// snapshots (the warmup changes the deterministic section).
		o.Warmup = 5 * time.Second
		if o.Runs > 2 {
			o.Runs = 2
		}
	}
	if o.Runs < 1 {
		o.Runs = 1
	}

	snap := &perf.Snapshot{
		Schema: perf.SchemaVersion,
		Label:  o.Label,
		Seed:   o.Seed,
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
	}
	for _, c := range cells(o) {
		fmt.Fprintf(out, "%-8s %-28s ", c.kind, c.label)
		scs, err := runCell(c, o)
		if err != nil {
			return fmt.Errorf("%s %s: %w", c.kind, c.label, err)
		}
		var pages int64
		for _, sc := range scs {
			pages += sc.Deterministic.PagesSent
		}
		fmt.Fprintf(out, "%8.2f ms/op  %6d pages sent\n",
			float64(scs[0].Timing.NsPerOp)/1e6, pages)
		snap.Scenarios = append(snap.Scenarios, scs...)
	}
	for _, k := range kernels(o.Seed) {
		fmt.Fprintf(out, "kernel   %-28s ", k.name)
		kr := measureKernel(k, o.Runs, kernelTarget(o.Quick))
		fmt.Fprintf(out, "%10.1f ns/op\n", float64(kr.Timing.NsPerOp))
		snap.Kernels = append(snap.Kernels, kr)
	}

	if o.MemProfile != "" {
		f, err := os.Create(o.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	if o.Out == "" {
		return perf.WriteSnapshot(out, snap)
	}
	f, err := os.Create(o.Out)
	if err != nil {
		return err
	}
	err = perf.WriteSnapshot(f, snap)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "snapshot written to %s (%d scenarios, %d kernels)\n",
		o.Out, len(snap.Scenarios), len(snap.Kernels))
	return nil
}

// runCompare diffs two snapshots and fails on drift or (unless report-only)
// timing regressions.
func runCompare(o options, out io.Writer) error {
	if len(o.Args) != 2 {
		return fmt.Errorf("-compare needs exactly two snapshot paths, got %d", len(o.Args))
	}
	old, err := perf.ReadSnapshotFile(o.Args[0])
	if err != nil {
		return err
	}
	cur, err := perf.ReadSnapshotFile(o.Args[1])
	if err != nil {
		return err
	}
	rep := perf.Compare(old, cur, perf.DefaultThresholds())
	perf.WriteReport(out, rep, o.ReportOnly)
	if !rep.OK(o.ReportOnly) {
		return errCompareFailed
	}
	return nil
}

// kernelTarget is the per-measurement wall budget for one kernel run.
func kernelTarget(quick bool) time.Duration {
	if quick {
		return 2 * time.Millisecond
	}
	return 20 * time.Millisecond
}
