package hypervisor

import (
	"testing"
	"time"

	"javmm/internal/mem"
	"javmm/internal/simclock"
)

func newTestDomain(pages uint64) *Domain {
	return NewDomain("test", simclock.New(), mem.NewVersionStore(pages), 4)
}

func TestDomainBasics(t *testing.T) {
	d := newTestDomain(16)
	if d.Name() != "test" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.NumPages() != 16 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	if d.MemoryBytes() != 16*mem.PageSize {
		t.Fatalf("MemoryBytes = %d", d.MemoryBytes())
	}
	if d.VCPUs() != 4 {
		t.Fatalf("VCPUs = %d", d.VCPUs())
	}
}

func TestDomainVCPUFloor(t *testing.T) {
	d := NewDomain("x", simclock.New(), mem.NewVersionStore(1), 0)
	if d.VCPUs() != 1 {
		t.Fatalf("VCPUs = %d, want floor of 1", d.VCPUs())
	}
}

func TestWritePageBumpsVersion(t *testing.T) {
	d := newTestDomain(4)
	d.WritePage(2)
	d.WritePage(2)
	if v := d.Store().Version(2); v != 2 {
		t.Fatalf("Version = %d, want 2", v)
	}
	if d.Writes() != 2 {
		t.Fatalf("Writes = %d, want 2", d.Writes())
	}
}

func TestLogDirtyTracksOnlyWhenEnabled(t *testing.T) {
	d := newTestDomain(8)
	d.WritePage(1)
	if d.DirtyCount() != 0 {
		t.Fatal("write dirtied page before log-dirty enabled")
	}
	if err := d.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	d.WritePage(1)
	d.WritePage(3)
	if d.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", d.DirtyCount())
	}
	d.DisableLogDirty()
	if d.DirtyCount() != 0 {
		t.Fatal("DisableLogDirty did not clear bitmap")
	}
	d.WritePage(5)
	if d.DirtyCount() != 0 {
		t.Fatal("write tracked after DisableLogDirty")
	}
}

func TestEnableLogDirtyTwiceErrors(t *testing.T) {
	d := newTestDomain(4)
	if err := d.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableLogDirty(); err == nil {
		t.Fatal("second EnableLogDirty succeeded")
	}
}

func TestPeekAndClearStartsNewRound(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(1)
	d.WritePage(2)
	snap := mem.NewBitmap(8)
	if n := d.PeekAndClear(snap); n != 2 {
		t.Fatalf("PeekAndClear = %d, want 2", n)
	}
	if !snap.Test(1) || !snap.Test(2) {
		t.Fatal("snapshot missing dirty pages")
	}
	if d.DirtyCount() != 0 {
		t.Fatal("dirty bitmap not cleared")
	}
	// New round: re-dirtying sets bits again.
	d.WritePage(1)
	if !d.DirtyNow(1) || d.DirtyNow(2) {
		t.Fatal("new round tracking wrong")
	}
}

func TestPeekDoesNotClear(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(3)
	snap := mem.NewBitmap(8)
	if n := d.Peek(snap); n != 1 {
		t.Fatalf("Peek = %d, want 1", n)
	}
	if d.DirtyCount() != 1 {
		t.Fatal("Peek cleared the bitmap")
	}
}

func TestPauseAccounting(t *testing.T) {
	clock := simclock.New()
	d := NewDomain("x", clock, mem.NewVersionStore(4), 1)
	clock.Advance(time.Second)
	d.Pause()
	d.Pause() // idempotent
	clock.Advance(2 * time.Second)
	if got := d.TotalPaused(); got != 2*time.Second {
		t.Fatalf("TotalPaused mid-pause = %v, want 2s", got)
	}
	d.Unpause()
	d.Unpause() // idempotent
	clock.Advance(time.Second)
	if got := d.TotalPaused(); got != 2*time.Second {
		t.Fatalf("TotalPaused = %v, want 2s", got)
	}
	if d.PauseCount() != 1 {
		t.Fatalf("PauseCount = %d, want 1", d.PauseCount())
	}
}

func TestWriteWhilePausedPanics(t *testing.T) {
	d := newTestDomain(4)
	d.Pause()
	defer func() {
		if recover() == nil {
			t.Fatal("write while paused did not panic")
		}
	}()
	d.WritePage(0)
}

func TestWriteTrapHookFiresOncePerPagePerRound(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(1)
	d.WritePage(1) // already dirty: no trap
	d.WritePage(2)
	if got := d.DirtyEvents(); got != 2 {
		t.Fatalf("DirtyEvents = %d, want 2", got)
	}
	snap := mem.NewBitmap(8)
	d.PeekAndClear(snap)
	d.WritePage(1) // new round: traps again
	if got := d.DirtyEvents(); got != 3 {
		t.Fatalf("DirtyEvents = %d, want 3", got)
	}
}

func TestPageFaultHookFiresBeforeWrite(t *testing.T) {
	d := newTestDomain(8)
	var faults []mem.PFN
	d.SetPageFaultHook(func(p mem.PFN) {
		faults = append(faults, p)
		// The hook observes the page BEFORE the write applies.
		if d.Store().Version(p) != 0 {
			t.Fatal("fault hook ran after the write")
		}
	})
	d.WritePage(3)
	if len(faults) != 1 || faults[0] != 3 {
		t.Fatalf("faults = %v", faults)
	}
	d.SetPageFaultHook(nil)
	d.WritePage(4)
	if len(faults) != 1 {
		t.Fatal("cleared hook still fired")
	}
}

func TestEventChannelDelivery(t *testing.T) {
	ec := NewEventChannel()
	var got []any
	ec.Guest().Bind(func(msg any) { got = append(got, msg) })
	ec.Daemon().Notify("begin")
	ec.Daemon().Notify("last-iter")
	if len(got) != 2 || got[0] != "begin" || got[1] != "last-iter" {
		t.Fatalf("guest received %v", got)
	}
	if ec.Daemon().Sent() != 2 {
		t.Fatalf("Sent = %d", ec.Daemon().Sent())
	}
}

func TestEventChannelBothDirections(t *testing.T) {
	ec := NewEventChannel()
	var daemonGot, guestGot any
	ec.Daemon().Bind(func(msg any) { daemonGot = msg })
	ec.Guest().Bind(func(msg any) { guestGot = msg })
	ec.Daemon().Notify("to-guest")
	ec.Guest().Notify("to-daemon")
	if guestGot != "to-guest" || daemonGot != "to-daemon" {
		t.Fatalf("delivery wrong: daemon=%v guest=%v", daemonGot, guestGot)
	}
}

func TestEventChannelUnboundDrops(t *testing.T) {
	ec := NewEventChannel()
	ec.Daemon().Notify("lost")
	if ec.Daemon().Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", ec.Daemon().Dropped())
	}
}

func TestEventChannelRebind(t *testing.T) {
	ec := NewEventChannel()
	var a, b int
	ec.Guest().Bind(func(any) { a++ })
	ec.Daemon().Notify(1)
	ec.Guest().Bind(func(any) { b++ })
	ec.Daemon().Notify(2)
	if a != 1 || b != 1 {
		t.Fatalf("rebind routing wrong: a=%d b=%d", a, b)
	}
}
