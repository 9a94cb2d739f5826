package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// small is the reduced size: the same operations and VMs (derby's young
// generation needs the full 2 GiB) after a 2 s instead of a 60 s warmup.
var small = sizes{memBytes: 2 << 30, warmup: 2 * time.Second}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func measureSmall(t *testing.T, workload string, trace bool, exp expectations) (result, []opRecord, error) {
	t.Helper()
	return measure(options{workload: workload, seed: 1, trace: trace}, small, exp, io.Discard)
}

// TestWorkloadsEmitEveryMetric runs each workload at reduced size, timed and
// traced, and checks that every metric BENCHMARK.json names is reported
// with its unit, and nothing else. The traced runs also write their spans,
// which must match the executor-call count they report.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	f := readBenchmark(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: wl, seed: 1, trace: trace}
			if trace {
				o.spansOut = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, _, err := measure(o, small, expectations{}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if trace {
				checkSpans(t, o.spansOut, res.Metrics["workload.exec_calls"].Value)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v", wl, trace, res)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.Name, got.Value)
				}
			}
		}
	}
}

// checkSpans reads a spans file back: every span closed after it opened,
// parents precede children, and the executor spans number execCalls.
func checkSpans(t *testing.T, path string, execCalls float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var n, exec int
	for dec.More() {
		var s struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.ID != n || s.Parent >= s.ID || s.EndNs < s.StartNs {
			t.Fatalf("span %d malformed: %+v", n, s)
		}
		if s.Name == spanExec {
			exec++
		}
		n++
	}
	if n == 0 || float64(exec) != execCalls {
		t.Errorf("%d spans, %d executor spans, workload.exec_calls %v", n, exec, execCalls)
	}
}

// TestRunsAreDeterministic runs each workload twice in one process and
// compares the deterministic records.
func TestRunsAreDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		_, a, err := measureSmall(t, wl, false, expectations{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		_, b, err := measureSmall(t, wl, false, expectations{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d records", wl, len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("%s op %d differs:\n%+v\n%+v", wl, i, a[i], b[i])
			}
		}
	}
}

// TestGateTripsOnCorruptedExpectation records one run's deterministic
// records, corrupts one value at a time, and checks that the next run fails
// the correctness gate instead of reporting numbers.
func TestGateTripsOnCorruptedExpectation(t *testing.T) {
	_, recs, err := measureSmall(t, wlEvacuate, false, expectations{})
	if err != nil {
		t.Fatal(err)
	}
	withRecs := func(r []opRecord) expectations {
		return expectations{Seeds: map[string]map[string][]opRecord{"1": {wlEvacuate: r}}}
	}
	if _, _, err := measureSmall(t, wlEvacuate, false, withRecs(recs)); err != nil {
		t.Fatalf("run against its own records: %v", err)
	}
	corruptions := map[string]func(r *opRecord){
		"sim_migration": func(r *opRecord) { r.SimMigrationNs++ },
		"sim_downtime":  func(r *opRecord) { r.SimDowntimeNs-- },
		"sim_traffic":   func(r *opRecord) { r.SimTrafficBytes += 4096 },
		"digest":        func(r *opRecord) { r.Det[0].RollingDigest = "0000000000000000" },
		"pages_sent":    func(r *opRecord) { r.Det[len(r.Det)-1].PagesSent++ },
	}
	for name, corrupt := range corruptions {
		bad := make([]opRecord, len(recs))
		for i, r := range recs {
			bad[i] = r
			bad[i].Det = append(bad[i].Det[:0:0], r.Det...)
		}
		corrupt(&bad[0])
		_, _, err := measureSmall(t, wlEvacuate, false, withRecs(bad))
		var ge *gateError
		if !errors.As(err, &ge) {
			t.Errorf("%s: corrupted expectation passed the gate (err %v)", name, err)
		}
	}
}

// TestRecordedSeedsCoverEveryWorkload checks that expected.json holds
// records for the tuning and the held-out seed on every workload.
func TestRecordedSeedsCoverEveryWorkload(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	if exp.TuningSeed == exp.HeldOutSeed {
		t.Fatalf("tuning and held-out seed are both %d", exp.TuningSeed)
	}
	for _, seed := range []int64{exp.TuningSeed, exp.HeldOutSeed} {
		for _, wl := range workloadNames {
			ops, err := operations(wl)
			if err != nil {
				t.Fatal(err)
			}
			recs := exp.lookup(seed, wl)
			if len(recs) != len(ops) {
				t.Errorf("seed %d %s: %d records for %d operations", seed, wl, len(recs), len(ops))
				continue
			}
			for i, op := range ops {
				if recs[i].Op != op.name() {
					t.Errorf("seed %d %s op %d: record for %q, operation %q", seed, wl, i, recs[i].Op, op.name())
				}
			}
		}
	}
}
