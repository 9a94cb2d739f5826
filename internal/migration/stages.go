package migration

import (
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/obs/ledger"
)

// The engine is a thin orchestrator over five pluggable stages. Each stage
// captures one axis of the paper's design space, and every migration mode is
// a composition of stage implementations rather than its own monolith:
//
//	SkipPolicy         which pages need not move (transfer bitmap, free list)
//	WireCodec          what a page costs on the wire (delta, hints, compress)
//	StopPolicy         when pre-copy gives up and stops the VM
//	SuspensionProtocol how the guest is told to prepare for suspension
//	PageSink           where transferred pages land (Destination, Tee, ...)
//
// A Source field left nil selects the default implementation derived from
// its Config (see bindStages); setting it plugs a custom stage into the
// unchanged orchestrator — the paper's "the application can specify"
// genericity, now first-class in the engine.

// SkipReason classifies why a dirty page is not transferred this round.
type SkipReason int

const (
	// SkipNone: the page must be sent.
	SkipNone SkipReason = iota
	// SkipBitmap: the page's transfer bit is cleared (application consent,
	// paper §3.3.3) — counted as PagesSkippedBitmap.
	SkipBitmap
	// SkipFree: the page is on the guest kernel's free list (Koto-style
	// OS assistance) — counted as PagesSkippedFree.
	SkipFree
)

// ledgerReason maps a stage skip decision onto the provenance ledger's
// taxonomy. Only policy skips appear here; the engine's own mid-round dirty
// deferral is tagged ledger.SkipDirty directly.
func (r SkipReason) ledgerReason() ledger.SkipReason {
	if r == SkipFree {
		return ledger.SkipFree
	}
	return ledger.SkipBitmap
}

// SkipPolicy decides, page by page, what the engine may leave behind. It
// also produces the FinalTransfer snapshot recorded at VM pause: the set of
// pages the destination must hold faithfully.
type SkipPolicy interface {
	Skip(p mem.PFN) SkipReason
	// FinalTransfer returns the transfer set to record at pause for a VM
	// of n pages. Implementations backed by a live bitmap must snapshot
	// (clone) it.
	FinalTransfer(n uint64) *mem.Bitmap
}

// transferAll is the application-agnostic policy: every page moves.
type transferAll struct{}

func (transferAll) Skip(mem.PFN) SkipReason { return SkipNone }

func (transferAll) FinalTransfer(n uint64) *mem.Bitmap {
	bm := mem.NewBitmap(n)
	bm.SetAll()
	return bm
}

// bitmapSkip consults a live transfer bitmap (the LKM's, or any
// application's): a cleared bit means skip, even if dirty.
type bitmapSkip struct {
	transfer *mem.Bitmap
}

func (b bitmapSkip) Skip(p mem.PFN) SkipReason {
	if !b.transfer.Test(p) {
		return SkipBitmap
	}
	return SkipNone
}

func (b bitmapSkip) FinalTransfer(uint64) *mem.Bitmap { return b.transfer.Clone() }

// freeSkip layers free-list skipping over another policy. The inner policy
// is consulted first, preserving the engine's historical counter order
// (bitmap before free).
type freeSkip struct {
	next SkipPolicy
	free func(mem.PFN) bool
}

func (f freeSkip) Skip(p mem.PFN) SkipReason {
	if r := f.next.Skip(p); r != SkipNone {
		return r
	}
	if f.free(p) {
		// Free-list pages carry no meaningful content; if the guest
		// reallocates one it is zeroed (written) and caught by a later
		// round.
		return SkipFree
	}
	return SkipNone
}

func (f freeSkip) FinalTransfer(n uint64) *mem.Bitmap { return f.next.FinalTransfer(n) }

// WireCodec models what one page costs to transmit: its wire size and the
// daemon CPU spent encoding it. rawWire is the page's uncompressed wire
// size. Codecs may keep per-run state (the delta cache); a fresh chain is
// built per migration.
type WireCodec interface {
	Encode(p mem.PFN, rawWire uint64) (wire uint64, cpu time.Duration)
}

// rawCodec ships pages uncompressed.
type rawCodec struct{}

func (rawCodec) Encode(_ mem.PFN, raw uint64) (uint64, time.Duration) { return raw, 0 }

// compressCodec applies the §6 uniform compression extension.
type compressCodec struct {
	ratio float64
	cost  time.Duration
}

func (c compressCodec) Encode(_ mem.PFN, raw uint64) (uint64, time.Duration) {
	return scaleWire(raw, c.ratio), c.cost
}

// hintedCodec refines compression with the per-page hints applications
// report through the LKM (§6). HintDefault falls through to the next codec.
type hintedCodec struct {
	hintFor func(mem.PFN) uint8
	next    WireCodec
}

func (c *hintedCodec) Encode(p mem.PFN, raw uint64) (uint64, time.Duration) {
	switch c.hintFor(p) {
	case guestos.HintFast:
		return scaleWire(raw, 0.6), 3 * time.Microsecond
	case guestos.HintStrong:
		return scaleWire(raw, 0.35), 12 * time.Microsecond
	case guestos.HintNone:
		return raw, 0
	}
	return c.next.Encode(p, raw)
}

// deltaCodec is the XBZRLE-style baseline (Svärd et al., §2): the first
// send of a page populates the cache and delegates; every resend ships as a
// delta. resends points into the live Report so aborted runs keep their
// partial count.
type deltaCodec struct {
	sentOnce *mem.Bitmap
	ratio    float64
	cost     time.Duration
	resends  *uint64
	next     WireCodec
}

func (c *deltaCodec) Encode(p mem.PFN, raw uint64) (uint64, time.Duration) {
	if c.sentOnce.Test(p) {
		*c.resends++
		return scaleWire(raw, c.ratio), c.cost
	}
	c.sentOnce.Set(p)
	return c.next.Encode(p, raw)
}

func scaleWire(w uint64, ratio float64) uint64 {
	out := uint64(float64(w) * ratio)
	if out == 0 {
		out = 1
	}
	return out
}

// StopPolicy decides, after each live iteration, whether pre-copy proceeds
// to stop-and-copy. st is the iteration just finished; sentBytes and
// memoryBytes feed the traffic cap.
type StopPolicy interface {
	Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool
}

// xenStop is xc_domain_save's rule set: the iteration cap, the traffic cap,
// then convergence on round volume. (Xen keys on pages sent in the round
// just finished, which is robust against momentary quiescence — a guest
// paused inside a GC looks converged on an instantaneous dirty count but
// not on round volume.)
type xenStop struct {
	maxIterations int
	threshold     uint64
	trafficFactor float64
}

func (x xenStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	if iter >= x.maxIterations {
		return true
	}
	if x.trafficFactor > 0 &&
		float64(sentBytes) >= x.trafficFactor*float64(memoryBytes) {
		return true
	}
	return st.PagesSent <= x.threshold
}

// warmStop bounds a hybrid migration's warm phase: stop after warmIters
// rounds, or earlier if the inner policy already considers it converged.
type warmStop struct {
	warmIters int
	next      StopPolicy
}

func (w warmStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	return iter >= w.warmIters || w.next.Stop(iter, st, sentBytes, memoryBytes)
}

// SuspensionProtocol is the engine's view of the guest-side pre-suspension
// workflow — for the LKM, the five-state machine of the paper's Figure 4.
// The orchestrator calls it at exactly the four points the monolithic engine
// used to special-case on Mode:
//
//	Begin          migration starts; returns the transfer bitmap (nil for
//	               a protocol without one)
//	EnterLastIter  pre-copy converged; guest should prepare for suspension
//	Ready          polled while the engine waits for suspension-readiness
//	Outcome        final-update duration and fallback count, once Ready
//	Resumed        VM resumed at the destination
//	Aborted        migration cancelled; guest returns to normal operation
//
// guestos.(*LKM).Protocol() is the canonical implementation; custom
// frameworks satisfy the interface structurally.
type SuspensionProtocol interface {
	Begin() *mem.Bitmap
	EnterLastIter()
	Ready() bool
	Outcome() (finalUpdate time.Duration, fallbacks int)
	Resumed()
	Aborted()
}

var _ SuspensionProtocol = (*guestos.DaemonProtocol)(nil)

// PageSink receives transferred pages. Destination is the default sink
// (with optional Tee mirroring); replication and tests may substitute their
// own. A non-nil error means the page did NOT land: the engine retries
// transient errors with backoff and aborts on ErrDestinationLost.
type PageSink interface {
	ReceivePage(p mem.PFN, payload []byte) error
}

// DigestSink is the optional integrity extension of PageSink: a sink that
// recomputes a content digest for every received payload and can answer what
// it holds. Destination implements it; when the active sink does, the engine
// runs the switchover digest audit and abortRun can mint a trustworthy
// ResumeToken. A sink without digests silently disables both (the engine
// cannot verify what it cannot ask about).
type DigestSink interface {
	PageSink
	// PageDigestAt returns the digest of the payload last received for p
	// (ok=false when p was never received into the current image).
	PageDigestAt(p mem.PFN) (uint64, bool)
	// ReceivedPages is the set of PFNs received into the current image
	// (read-only for callers).
	ReceivedPages() *mem.Bitmap
	// DigestSnapshot copies the per-PFN digest table.
	DigestSnapshot() []uint64
	// RollingDigest is the run-level summary of the receive sequence.
	RollingDigest() uint64
	// Generation identifies the image: it changes whenever the sink's state
	// is torn down (Destination bumps it on Discard).
	Generation() uint64
}

var _ DigestSink = (*Destination)(nil)

// NewWireCodec builds the default codec chain Cfg describes for a VM of n
// pages: raw, optionally compressed, refined by per-page hints (hintFor may
// be nil, disabling the hint layer), with delta resend caching outermost.
// resends, when non-nil, receives the running delta-resend count (the engine
// points it into the live Report). The second return is the daemon-side
// delta cache cost in bytes (zero without DeltaCompression). Call after
// FillDefaults. Exposed so the bench harness can measure each codec chain in
// isolation with exactly the construction the engine uses.
func (c *Config) NewWireCodec(n uint64, hintFor func(mem.PFN) uint8, resends *uint64) (WireCodec, uint64) {
	var codec WireCodec = rawCodec{}
	if c.Compress {
		codec = compressCodec{ratio: c.CompressionRatio, cost: c.CompressCostPerPage}
	}
	if c.HintedCompression && hintFor != nil {
		codec = &hintedCodec{hintFor: hintFor, next: codec}
	}
	var cacheBytes uint64
	if c.DeltaCompression {
		if resends == nil {
			resends = new(uint64)
		}
		codec = &deltaCodec{
			sentOnce: mem.NewBitmap(n),
			ratio:    c.DeltaRatio,
			cost:     c.DeltaCostPerPage,
			resends:  resends,
			next:     codec,
		}
		cacheBytes = n * mem.PageSize // one cached copy per page
	}
	return codec, cacheBytes
}

// bindStages resolves the active stage set for one run: explicit Source
// overrides win, otherwise defaults are derived from Cfg. transfer is the
// suspension protocol's bitmap (nil when there is none). Must run after
// FillDefaults and report initialization. With Cfg.Perf set, the stop
// policy is additionally wrapped in its real-clock profiling decorator (the
// per-page stages are profiled at their call sites, see perfstages.go).
func (s *Source) bindStages(transfer *mem.Bitmap) {
	s.sink = s.Sink
	if s.sink == nil {
		s.sink = s.Dest
	}

	s.skip = s.Skip
	if s.skip == nil {
		var sp SkipPolicy = transferAll{}
		if transfer != nil {
			sp = bitmapSkip{transfer: transfer}
		}
		if s.Cfg.SkipFreePages && s.GuestFree != nil {
			sp = freeSkip{next: sp, free: s.GuestFree}
		}
		s.skip = sp
	}

	s.codec = s.Codec
	if s.codec == nil {
		codec, cacheBytes := s.Cfg.NewWireCodec(s.Dom.NumPages(), s.HintFor, &s.report.DeltaResends)
		s.codec = codec
		if cacheBytes > 0 {
			s.report.DeltaCacheBytes = cacheBytes
		}
	}

	s.stop = s.Stop
	if s.stop == nil {
		s.stop = xenStop{
			maxIterations: s.Cfg.MaxIterations,
			threshold:     s.Cfg.DirtyPageThreshold,
			trafficFactor: s.Cfg.MaxTrafficFactor,
		}
	}

	if p := s.Cfg.Perf; p != nil {
		s.stop = profiledStop{next: s.stop, p: p}
	}
}
