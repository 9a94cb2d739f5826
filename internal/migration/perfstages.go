package migration

import (
	"time"

	"javmm/internal/mem"
	"javmm/internal/obs/perf"
)

// Real-clock stage profiling. When Config.Perf is set, every call of a bound
// stage is counted and attributed to the perf.Profiler stage taxonomy. Before
// each per-page call (skip policy, wire codec, page sink) the engine asks
// perf.Profiler.Sampled, which the compiler inlines, at the call site: an
// unsampled call runs the bare stage with no wrapper or helper in between, so
// the profiler stays off the per-page path and CPU profiles show each stage's
// own frames; a sampled call goes through the *Timed helpers below. The
// coarse stages (stop policy, suspension protocol) run at most a few
// thousand times per migration and are wrapped in decorators that time every
// call. With Perf nil nothing is wrapped and the engine runs exactly as
// before; the profiler's deterministic transparency (identical reports with
// and without it) is asserted by TestPerfProfilerTransparent and by the
// bench harness on every run.

func (s *Source) skipTimed(pfn mem.PFN) SkipReason {
	s.Cfg.Perf.Enter(perf.StageSkipPolicy)
	r := s.skip.Skip(pfn)
	s.Cfg.Perf.Exit()
	return r
}

func (s *Source) encodeTimed(pfn mem.PFN, raw uint64) (uint64, time.Duration) {
	s.Cfg.Perf.Enter(perf.StageWireCodec)
	wire, cpu := s.codec.Encode(pfn, raw)
	s.Cfg.Perf.Exit()
	return wire, cpu
}

func (s *Source) receiveTimed(pfn mem.PFN, payload []byte) error {
	s.Cfg.Perf.Enter(perf.StagePageSink)
	err := s.sink.ReceivePage(pfn, payload)
	s.Cfg.Perf.Exit()
	return err
}

// finalTransfer asks the skip policy for the stop-and-copy transfer bitmap.
func (s *Source) finalTransfer(n uint64) *mem.Bitmap {
	if p := s.Cfg.Perf; p.Sampled(perf.StageSkipPolicy) {
		p.Enter(perf.StageSkipPolicy)
		defer p.Exit()
	}
	return s.skip.FinalTransfer(n)
}

type profiledStop struct {
	next StopPolicy
	p    *perf.Profiler
}

func (w profiledStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	w.p.Enter(perf.StageStopPolicy)
	stop := w.next.Stop(iter, st, sentBytes, memoryBytes)
	w.p.Exit()
	return stop
}

type profiledProto struct {
	next SuspensionProtocol
	p    *perf.Profiler
}

func (w profiledProto) Begin() *mem.Bitmap {
	w.p.Enter(perf.StageSuspension)
	bm := w.next.Begin()
	w.p.Exit()
	return bm
}

func (w profiledProto) EnterLastIter() {
	w.p.Enter(perf.StageSuspension)
	w.next.EnterLastIter()
	w.p.Exit()
}

func (w profiledProto) Ready() bool {
	w.p.Enter(perf.StageSuspension)
	r := w.next.Ready()
	w.p.Exit()
	return r
}

func (w profiledProto) Outcome() (time.Duration, int) {
	w.p.Enter(perf.StageSuspension)
	d, f := w.next.Outcome()
	w.p.Exit()
	return d, f
}

func (w profiledProto) Resumed() {
	w.p.Enter(perf.StageSuspension)
	w.next.Resumed()
	w.p.Exit()
}

func (w profiledProto) Aborted() {
	w.p.Enter(perf.StageSuspension)
	w.next.Aborted()
	w.p.Exit()
}

// profileProto wraps a suspension protocol when a profiler is present.
func profileProto(next SuspensionProtocol, p *perf.Profiler) SuspensionProtocol {
	if p == nil || next == nil {
		return next
	}
	return profiledProto{next: next, p: p}
}
