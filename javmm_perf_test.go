package javmm_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"javmm"
	"javmm/internal/obs/perf"
)

// derbyJavmmRun boots derby the way javmm-migrate does by default (2 GiB, 4
// vCPUs, seed 1), warms it for 60 s of virtual time and migrates it in javmm
// mode with prof attached (nil for none). It returns the result and the
// host wall time of the Migrate call alone.
func derbyJavmmRun(t *testing.T, prof *javmm.StageProfiler) (*javmm.Result, time.Duration) {
	t.Helper()
	wl, err := javmm.Workload("derby")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes: 2048 << 20,
		VCPUs:    4,
		Profile:  wl,
		Assisted: true,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Driver.Run(60 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	// Start every timed migration from a collected heap, so that neither side
	// inherits the other's garbage.
	runtime.GC()
	start := time.Now()
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:       javmm.ModeJAVMM,
		Engine:     javmm.EngineConfig{Perf: prof},
		SkipVerify: true,
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return res, wall
}

// TestStageProfilerCallCounts pins the exact per-stage call counts of the
// derby/javmm migration, checks which calls were timed — ceil(calls /
// SampleEvery) of a hot stage, every call of a coarse one — and that the
// allocation account has one segment per engine iteration plus the wrap-up.
func TestStageProfilerCallCounts(t *testing.T) {
	prof := javmm.NewStageProfiler()
	res, _ := derbyJavmmRun(t, prof)

	want := map[string]uint64{
		"skip-policy":         771295,
		"wire-codec":          270028,
		"stop-policy":         4,
		"suspension-protocol": 1097,
		"page-sink":           270028,
		"digest-audit":        1,
	}
	hot := map[string]bool{"skip-policy": true, "wire-codec": true, "page-sink": true}
	snap := prof.Snapshot()
	if len(snap) != len(want) {
		t.Errorf("%d stages recorded, want %d: %+v", len(snap), len(want), snap)
	}
	for _, s := range snap {
		if s.Calls != want[s.Stage] {
			t.Errorf("%s: %d calls, want %d", s.Stage, s.Calls, want[s.Stage])
		}
		timed := s.Calls
		if hot[s.Stage] {
			timed = (s.Calls + perf.SampleEvery - 1) / perf.SampleEvery
		}
		if s.Timed != timed {
			t.Errorf("%s: %d of %d calls timed, want %d", s.Stage, s.Timed, s.Calls, timed)
		}
		if s.SelfNs < 0 || s.TotalNs < s.SelfNs {
			t.Errorf("%s: implausible times self=%dns total=%dns", s.Stage, s.SelfNs, s.TotalNs)
		}
	}

	allocs := prof.Allocs()
	iters := res.Report.Iterations
	if len(allocs) != len(iters)+1 {
		t.Fatalf("%d allocation segments, want %d iterations + wrap-up: %+v", len(allocs), len(iters), allocs)
	}
	for i, it := range iters {
		if allocs[i].Iteration != it.Index {
			t.Errorf("segment %d is iteration %d, want %d", i, allocs[i].Iteration, it.Index)
		}
	}
	if last := allocs[len(allocs)-1]; last.Iteration != 0 {
		t.Errorf("last segment is iteration %d, want the wrap-up (0)", last.Iteration)
	}
	if allocs[0].Bytes == 0 {
		t.Error("iteration 1 (which includes the run's setup) allocated nothing")
	}
}

// TestStageProfilerOverhead is the profiler's cost gate: the derby/javmm
// migration with the stage profiler attached may take at most 10 % more host
// wall time than without it. The sides run in alternating pairs, swapping
// which goes first, so that drift in the machine's speed hits both, and are
// compared by their medians. On a shared 2-CPU VM a single migration's wall
// time varies by about ±10 % from run to run, in both directions, and the
// ratio of two medians of five spreads by as much again: a minimum is at the
// mercy of one lucky run, and a single median of five would fail a profiler
// with no overhead about one time in ten. So while the ratio is over the
// bound the test runs five more pairs, up to thirty, and judges the medians
// over all of them.
func TestStageProfilerOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-time gate: skipped under -short and -race")
	}
	const (
		bound    = 1.10
		round    = 5
		maxPairs = 30
	)
	var bare, profiled []time.Duration
	ratio := 0.0
	for i := 0; i < maxPairs; i++ {
		var b, p time.Duration
		if i%2 == 0 {
			_, b = derbyJavmmRun(t, nil)
			_, p = derbyJavmmRun(t, javmm.NewStageProfiler())
		} else {
			_, p = derbyJavmmRun(t, javmm.NewStageProfiler())
			_, b = derbyJavmmRun(t, nil)
		}
		bare, profiled = append(bare, b), append(profiled, p)
		if len(bare)%round != 0 {
			continue
		}
		mb, mp := median(bare), median(profiled)
		ratio = float64(mp) / float64(mb)
		t.Logf("median of %d: bare %v, profiled %v, ratio %.3f", len(bare), mb, mp, ratio)
		if ratio <= bound {
			return
		}
	}
	t.Errorf("stage profiler overhead ratio %.3f > %.2f over %d pairs", ratio, bound, maxPairs)
}

// median returns the median of ds (the upper one of an even count).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
