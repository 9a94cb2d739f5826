// Command perfbench is the javmm benchmark. It drives the public javmm API
// as one closed-loop client (each operation starts when the previous one
// returns) on one of three workloads:
//
//	mode-matrix  fresh single-VM migrations: the Figure 10 profiles under
//	             xen and javmm, post-copy/hybrid cells, two codec chains
//	evacuate     one Orchestrate call evacuating six cycling VMs while a
//	             destination crashes for good
//	observed     derby and crypto under xen and javmm with every
//	             observability plane attached and exported
//
// A run repeats the workload's operations in passes for --seconds seconds
// and prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run (--trace 1).
// Every operation passes the correctness gate: no engine error, destination
// verified, and a deterministic record equal to the recorded one for the
// seed (expected.json) and identical across passes.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mode-matrix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --all --seconds 1      # every workload at every recorded seed
//	bash perfbench/run.sh --workload evacuate --seed 1 --record perfbench/expected.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"syscall"
	"time"
)

// Workload names.
const (
	wlModeMatrix = "mode-matrix"
	wlEvacuate   = "evacuate"
	wlObserved   = "observed"
)

var workloadNames = []string{wlModeMatrix, wlEvacuate, wlObserved}

// operation is one closed-loop step of a workload: a single-VM cell, or
// the evacuate plan when plan is set.
type operation struct {
	cell cell
	plan bool
}

func (op operation) name() string {
	if op.plan {
		return "evacuate"
	}
	return op.cell.name()
}

func (op operation) run(seed int64, sz sizes, rec *recorder) (sample, error) {
	if op.plan {
		return runEvacuate(seed, sz, rec)
	}
	return runCell(op.cell, seed, sz, rec)
}

// operations lists a workload's operations in pass order.
func operations(workload string) ([]operation, error) {
	var cells []cell
	switch workload {
	case wlModeMatrix:
		cells = modeMatrixCells()
	case wlObserved:
		cells = observedCells()
	case wlEvacuate:
		return []operation{{plan: true}}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	ops := make([]operation, len(cells))
	for i, c := range cells {
		ops[i] = operation{cell: c}
	}
	return ops, nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	all      bool
	spansOut string
	record   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: mode-matrix, evacuate or observed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: per-layer metrics from a separate traced run")
	flag.BoolVar(&o.all, "all", false, "run every workload at every recorded seed, one result line each")
	flag.StringVar(&o.spansOut, "spans-out", "", "with --trace 1: write every span as JSONL to this file")
	flag.StringVar(&o.record, "record", "", "store this run's deterministic records for the seed in this expectations file")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gateError is a correctness-gate failure: the run prints a failed result
// instead of a number.
type gateError struct {
	attempted int
	err       error
}

func (e *gateError) Error() string { return e.err.Error() }
func (e *gateError) Unwrap() error { return e.err }

func run(o options, out, log io.Writer) error {
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	if o.all {
		return runAll(o, exp, out, log)
	}
	res, recs, err := measure(o, fullSizes, exp, log)
	var ge *gateError
	if errors.As(err, &ge) {
		res = result{Attempted: ge.attempted, Failed: 1, Metrics: map[string]metric{}}
		if perr := printResult(out, res); perr != nil {
			return perr
		}
		return err
	}
	if err != nil {
		return err
	}
	if o.record != "" {
		if err := exp.store(o.record, o.seed, o.workload, recs); err != nil {
			return err
		}
	}
	return printResult(out, res)
}

// runAll runs every workload at every recorded seed and prints one result
// line per pair, prefixed with the pair.
func runAll(o options, exp expectations, out, log io.Writer) error {
	for _, seed := range exp.seeds() {
		for _, wl := range workloadNames {
			o.workload, o.seed = wl, seed
			res, _, err := measure(o, fullSizes, exp, log)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			fmt.Fprintf(out, "%s seed=%d ", wl, seed)
			if err := printResult(out, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure runs one workload: timed passes for the end-to-end metrics, or a
// traced run for the per-layer ones. It returns the first pass's
// deterministic records.
func measure(o options, sz sizes, exp expectations, log io.Writer) (result, []opRecord, error) {
	ops, err := operations(o.workload)
	if err != nil {
		return result{}, nil, err
	}
	g := &gate{want: exp.lookup(o.seed, o.workload)}
	if o.trace {
		return tracedRun(o, ops, sz, g, log)
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes [][]sample
	for {
		t := time.Now()
		ss, err := runPass(ops, o.seed, sz, nil, g)
		if err != nil {
			return result{}, nil, err
		}
		passes = append(passes, ss)
		fmt.Fprintf(log, "%s pass %d: %.3fs\n", o.workload, len(passes), time.Since(t).Seconds())
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	m := endToEnd(passes)
	return result{Correct: true, Attempted: g.attempted, Metrics: m}, g.first, nil
}

// runPass runs every operation once, through the gate.
func runPass(ops []operation, seed int64, sz sizes, rec *recorder, g *gate) ([]sample, error) {
	ss := make([]sample, len(ops))
	for i, op := range ops {
		s, err := op.run(seed, sz, rec)
		g.attempted += max(s.migrations, 1)
		if err == nil {
			err = g.check(i, s.rec)
		}
		if err != nil {
			return nil, &gateError{attempted: g.attempted, err: fmt.Errorf("%s: %w", op.name(), err)}
		}
		ss[i] = s
	}
	return ss, nil
}

// gate compares each operation's deterministic record with the recorded
// expectation (when the seed has one) and with the first pass.
type gate struct {
	want      []opRecord
	first     []opRecord
	attempted int
}

func (g *gate) check(i int, r opRecord) error {
	if g.want != nil {
		if i >= len(g.want) {
			return fmt.Errorf("no recorded record for operation %d", i)
		}
		if !reflect.DeepEqual(g.want[i], r) {
			return fmt.Errorf("deterministic record differs from the recorded one:\nwant %+v\ngot  %+v", g.want[i], r)
		}
	}
	if i < len(g.first) {
		if !reflect.DeepEqual(g.first[i], r) {
			return fmt.Errorf("deterministic record differs between passes:\nfirst %+v\nnow   %+v", g.first[i], r)
		}
		return nil
	}
	g.first = append(g.first, r)
	return nil
}

// endToEnd aggregates timed passes: each host-time figure is the sum over
// operations of the operation's median across passes; the simulated figures
// are per-pass sums, identical in every pass. A failed operation fails the
// whole run at the gate, so every reported run completed all of them.
func endToEnd(passes [][]sample) map[string]metric {
	var setup, wall, alloc float64
	for i := range passes[0] {
		var su, wa, al []float64
		for _, p := range passes {
			su = append(su, p[i].setup.Seconds())
			wa = append(wa, p[i].wall.Seconds())
			al = append(al, float64(p[i].allocBytes))
		}
		setup += median(su)
		wall += median(wa)
		alloc += median(al)
	}
	var simMig, simDown, simBytes float64
	for _, s := range passes[0] {
		simMig += time.Duration(s.rec.SimMigrationNs).Seconds()
		simDown += time.Duration(s.rec.SimDowntimeNs).Seconds()
		simBytes += float64(s.rec.SimTrafficBytes)
	}
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"wall_s":          {wall, "s"},
		"peak_rss_mib":    {peakRSSMiB(), "MiB"},
		"alloc_gib":       {alloc / (1 << 30), "GiB"},
		"ops_ok_frac":     {1, "fraction"},
		"sim_migration_s": {simMig, "s"},
		"sim_downtime_s":  {simDown, "s"},
		"sim_traffic_gib": {simBytes / (1 << 30), "GiB"},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
