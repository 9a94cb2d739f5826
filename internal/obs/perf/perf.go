// Package perf is the real-clock performance-observability plane. It
// complements the virtual-clock tracer/metrics/ledger stack of package obs:
// those answer "where did the simulated time and bytes go", this package
// answers "where does the *wall* time and memory of the simulator itself go"
// — the question every raw-speed optimization must be judged by.
//
// The central type is Profiler, a per-run accumulator of wall time attributed
// to named engine stages (the five pluggable stages of the migration engine,
// plus the lazy/post-copy fetch path and the digest/audit loops), and of heap
// allocation per engine iteration. Attribution is self-time based: a stage's
// SelfNs excludes the time spent in stages nested inside it, so shares are
// additive. The profiler is single-threaded by design, exactly like the engine
// it instruments, and a nil *Profiler is a valid no-op — the engine pays
// nothing when profiling is off.
//
// The profiler must stay cheap enough to leave on, so it keeps off the
// per-page path. Call counts are exact. Calls the engine makes once per page
// are timed on a fixed 1-in-SampleEvery stride (see Sampled), and each
// stride sample stands in for the untimed calls around it; an untimed call
// costs one counter increment and a branch. Calls made once per iteration or
// run are timed every time, and so is any call made while a timed stage is
// open, which keeps self-times additive. Clock reads use only the monotonic
// clock, and the cost of timing a call, calibrated when the profiler is
// created, is taken off every timed call. Allocation is read exactly, with
// runtime.ReadMemStats, at engine iteration boundaries — never per call.
package perf

import (
	"runtime"
	"sort"
	"time"
)

// Stage identifies one instrumented section of the migration data path.
type Stage uint8

const (
	// StageSkipPolicy is the per-page "may this page stay behind" decision
	// (transfer bitmap, free list).
	StageSkipPolicy Stage = iota
	// StageWireCodec is per-page wire encoding (compress, hints, delta).
	StageWireCodec
	// StageStopPolicy is the per-iteration convergence decision.
	StageStopPolicy
	// StageSuspension is the guest-side suspension protocol (LKM handshake:
	// Begin, EnterLastIter, Ready polling, Outcome).
	StageSuspension
	// StagePageSink is page delivery into the destination (including the
	// destination's digest recompute).
	StagePageSink
	// StageLazyFetch is the post-copy engine's demand-fetch and prefetch
	// path (link send, delivery, inline verification).
	StageLazyFetch
	// StageDigestAudit is the integrity plane's switchover audit and
	// per-fetch digest verification loops.
	StageDigestAudit

	numStages
)

var stageNames = [numStages]string{
	"skip-policy",
	"wire-codec",
	"stop-policy",
	"suspension-protocol",
	"page-sink",
	"lazy-fetch",
	"digest-audit",
}

// String returns the stage's stable snake-ish name, used in snapshots.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every instrumented stage in canonical order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// SampleEvery is the timing stride of the hot stages: the first call of a
// hot stage and every SampleEvery-th after it are timed. It is a constant so
// that which calls are timed is a pure function of the call sequence. It is
// prime, because the engine's per-page work has power-of-two periods: it
// delivers pages in chunks of 1024 and runs the guest between chunks, so the
// first call after a chunk boundary finds cold caches. A stride of 256 timed
// that call in every fourth sample and roughly doubled the page-sink
// estimate; a prime stride visits every position in a chunk equally. A
// timed call costs two monotonic clock reads, about 130 ns in all on a 2-CPU
// x86 VM, half a nanosecond per call amortized, while a derby migration
// (771k skip decisions, 270k encodes and deliveries) still times about 3000
// skip decisions and 1000 of each of the others.
const SampleEvery = 251

// frame is one open, timed stage on the profiler's stack.
type frame struct {
	stage    Stage
	start    time.Duration // since the profiler's epoch
	childDur time.Duration
	sample   bool // a sample, standing in for untimed calls (see Sampled)
}

// times is a pair of self and total time sums.
type times struct{ self, total time.Duration }

// stageAcc accumulates one stage's totals. Timed calls fall in two strata
// (see Sampled): exact calls stand for themselves, samples for themselves
// and every untimed call.
type stageAcc struct {
	calls   uint64
	timed   uint64 // exact calls + samples
	samples uint64
	exact   times
	sampled times
}

// IterationAlloc is the exact heap allocation between two boundary reads of
// the allocation counter.
type IterationAlloc struct {
	// Iteration is the engine iteration the bytes were allocated in, as
	// IterationStats.Index; the run's setup before its first iteration
	// counts towards iteration 1. 0 marks a run's wrap-up after its last
	// iteration.
	Iteration int `json:"iteration"`
	// Bytes is the cumulative heap allocation between the reads. It counts
	// every goroutine's allocations, so under a fleet sharing one profiler a
	// segment includes what other engines allocated in it.
	Bytes uint64 `json:"bytes"`
}

// Profiler attributes wall time to stages and heap allocation to engine
// iterations. Create one with NewProfiler and hand it to the engine
// (migration.Config.Perf); read it back with Snapshot and Allocs after the
// run. Not safe for concurrent use — one profiler per single-threaded run
// (or per cooperative fleet, whose processes never run at once).
type Profiler struct {
	epoch  time.Time
	clock  time.Duration // what timing a call adds to it (see calibrate)
	sample bool          // the next Enter opens a sample
	stack  []frame
	acc    [numStages]stageAcc
	runs   int    // engine runs open (BeginRun without EndRun)
	allocs uint64 // TotalAlloc at the last boundary read
	iters  []IterationAlloc
	ms     runtime.MemStats // reused: a MemStats is too large to allocate per read
}

// NewProfiler returns an empty profiler. A nil *Profiler is also valid:
// every method no-ops.
func NewProfiler() *Profiler {
	p := &Profiler{epoch: time.Now(), stack: make([]frame, 0, 8)}
	p.calibrate()
	return p
}

// now reads the monotonic clock only (time.Now also reads the wall clock).
func (p *Profiler) now() time.Duration { return time.Since(p.epoch) }

// calibrate measures what timing a call adds to the call's measured time —
// the clock reads and stack bookkeeping of Enter/Exit — as the median of
// empty timed calls, and sets it as the cost Exit takes off. A skip decision
// takes a few nanoseconds and one clock read some fifty, so a per-page
// stage's time means something only once this is subtracted.
func (p *Profiler) calibrate() {
	var gaps [63]time.Duration
	for i := range gaps {
		before := p.acc[0].exact.total
		p.Enter(0)
		p.Exit()
		gaps[i] = p.acc[0].exact.total - before
	}
	p.acc = [numStages]stageAcc{}
	sort.Slice(gaps[:], func(i, j int) bool { return gaps[i] < gaps[j] })
	p.clock = gaps[len(gaps)/2]
}

// Sampled counts one call of a hot stage — one the engine calls once per
// page: skip policy, wire codec, page sink, lazy fetch, per-fetch digest
// verification — and reports whether to time it. A call is timed when it is
// the first of its stage's stride, or when a timed stage is open around it.
// An untimed call is counted here and runs bare; a timed one must be
// bracketed by Enter/Exit, which count it.
//
// A timed call is either a sample, standing in for the untimed calls around
// it, or exact, standing for itself. A stride call is a sample, except the
// stage's very first call: it often does one-time setup (the destination's
// first delivery allocates its digest table, 0.5–2.5 ms) that must not be
// multiplied by the stride. A call inside a timed stage is whatever that
// stage's call is: the page deliveries inside sampled lazy fetches are a
// sample of all deliveries, the re-encodes inside the one audit loop are not.
// A nil profiler never samples.
func (p *Profiler) Sampled(s Stage) bool {
	if p == nil {
		return false
	}
	if n := len(p.stack); n > 0 {
		p.sample = p.stack[n-1].sample
		return true
	}
	a := &p.acc[s]
	if a.calls%SampleEvery != 0 {
		a.calls++
		return false
	}
	p.sample = a.calls > 0
	return true
}

// Enter counts a call of stage s and opens it, timed. Every Enter must be
// paired with exactly one Exit; stages may nest arbitrarily (the engine's
// audit loop re-enters the codec and sink stages) and self-time attribution
// untangles the nesting.
func (p *Profiler) Enter(s Stage) {
	if p == nil {
		return
	}
	p.acc[s].calls++
	p.stack = append(p.stack, frame{stage: s, start: p.now(), sample: p.sample})
	p.sample = false
}

// Exit closes the innermost open stage, attributing its elapsed wall time,
// less the calibrated cost of timing it, minus whatever nested stages
// already claimed. Exit on an empty stack is a no-op rather than a
// panic: a profiler must never take the engine down.
func (p *Profiler) Exit() {
	if p == nil || len(p.stack) == 0 {
		return
	}
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	raw := p.now() - f.start
	el := max(raw-p.clock, 0)
	a := &p.acc[f.stage]
	a.timed++
	t := &a.exact
	if f.sample {
		a.samples++
		t = &a.sampled
	}
	t.total += el
	t.self += max(el-f.childDur, 0)
	if len(p.stack) > 0 {
		// The parent paid for the child and for timing it, whose cost
		// lies partly outside raw: charge the calibrated cost once more.
		p.stack[len(p.stack)-1].childDur += raw + p.clock
	}
}

// Time runs fn inside stage s, timed.
func (p *Profiler) Time(s Stage, fn func()) {
	p.Enter(s)
	fn()
	p.Exit()
}

// readAlloc returns the bytes allocated since the previous boundary read.
// ReadMemStats flushes every P's allocation cache, so the count is exact;
// it stops the world, which is why it runs per iteration and not per call.
func (p *Profiler) readAlloc() uint64 {
	runtime.ReadMemStats(&p.ms)
	d := p.ms.TotalAlloc - p.allocs
	p.allocs = p.ms.TotalAlloc
	return d
}

// BeginRun marks the start of an engine run: allocation from here to the
// run's first iteration boundary counts towards iteration 1. While another
// run is open on the same profiler (a fleet) the boundary reads continue
// unbroken instead.
func (p *Profiler) BeginRun() {
	if p == nil {
		return
	}
	if p.runs == 0 {
		p.readAlloc()
	}
	p.runs++
}

// EndIteration is the engine's iteration boundary: it records the exact
// allocation since the previous boundary against iteration index.
func (p *Profiler) EndIteration(index int) {
	if p == nil || p.runs == 0 {
		return
	}
	p.iters = append(p.iters, IterationAlloc{Iteration: index, Bytes: p.readAlloc()})
}

// EndRun records the allocation after the run's last iteration boundary as
// iteration 0 and closes the run.
func (p *Profiler) EndRun() {
	if p == nil || p.runs == 0 {
		return
	}
	p.EndIteration(0)
	p.runs--
}

// Allocs returns the per-iteration allocation segments in the order they
// were read. A nil profiler returns nil.
func (p *Profiler) Allocs() []IterationAlloc {
	if p == nil {
		return nil
	}
	return append([]IterationAlloc(nil), p.iters...)
}

// Reset clears the accumulated totals (open frames and runs are dropped
// too).
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.stack = p.stack[:0]
	p.sample = false
	p.acc = [numStages]stageAcc{}
	p.runs = 0
	p.iters = nil
}

// StageStats is one stage's accumulated account.
type StageStats struct {
	// Stage is the stable stage name.
	Stage string `json:"stage"`
	// Calls is the exact number of calls.
	Calls uint64 `json:"calls"`
	// Timed is the number of calls whose wall time was measured: every
	// call of a coarse stage, ceil(Calls/SampleEvery) of a hot one (plus
	// any it made inside another timed stage).
	Timed uint64 `json:"timed"`
	// SelfNs is wall time spent in the stage excluding nested stages —
	// the additive quantity shares are computed from — estimated from the
	// timed calls for all calls.
	SelfNs int64 `json:"self_ns"`
	// TotalNs is wall time including nested stages, scaled like SelfNs.
	TotalNs int64 `json:"total_ns"`
}

// estimate extrapolates a stage's timed sums to all of its calls: the exact
// calls count as they are and the samples stand in for every untimed call
// too. A stage with no sample yet (at most SampleEvery calls) reports its
// exact calls alone.
func (a stageAcc) estimate(exact, sampled time.Duration) int64 {
	if a.samples == 0 {
		return exact.Nanoseconds()
	}
	untimed := a.calls - a.timed
	return int64(exact + time.Duration(float64(sampled)*float64(a.samples+untimed)/float64(a.samples)))
}

// Snapshot returns the per-stage accounts in canonical stage order, omitting
// stages that were never entered. A nil profiler returns nil.
func (p *Profiler) Snapshot() []StageStats {
	if p == nil {
		return nil
	}
	var out []StageStats
	for i := Stage(0); i < numStages; i++ {
		a := p.acc[i]
		if a.calls == 0 {
			continue
		}
		out = append(out, StageStats{
			Stage:   i.String(),
			Calls:   a.calls,
			Timed:   a.timed,
			SelfNs:  a.estimate(a.exact.self, a.sampled.self),
			TotalNs: a.estimate(a.exact.total, a.sampled.total),
		})
	}
	return out
}

// SelfTotal returns the sum of every stage's scaled self time — the portion
// of the run's wall clock the instrumented stages account for.
func (p *Profiler) SelfTotal() time.Duration {
	var t int64
	for _, s := range p.Snapshot() {
		t += s.SelfNs
	}
	return time.Duration(t)
}
