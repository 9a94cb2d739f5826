package cacheapp

import (
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
)

func launch(t *testing.T, assisted bool) (*App, *guestos.Guest, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(65536), 2) // 256 MiB
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	app, err := Launch(Config{
		Guest:      g,
		Clock:      clock,
		CacheBytes: 64 << 20,
		Assisted:   assisted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app, g, clock
}

func TestLaunchPopulatesCache(t *testing.T) {
	app, g, _ := launch(t, false)
	if app.Region().Pages() != 16384 {
		t.Fatalf("region pages = %d", app.Region().Pages())
	}
	// Every cache page written once at populate time.
	var unwritten int
	app.Proc().AS.Walk(app.Region(), func(va mem.VA, p mem.PFN) {
		if g.Dom.Store().Version(p) == 0 {
			unwritten++
		}
	})
	if unwritten != 0 {
		t.Fatalf("%d cache pages never populated", unwritten)
	}
	if app.HitRatio() != 1.0 {
		t.Fatalf("fresh HitRatio = %v", app.HitRatio())
	}
}

func TestConfigValidation(t *testing.T) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(1024), 1)
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	if _, err := Launch(Config{Clock: clock, CacheBytes: 1 << 20}); err == nil {
		t.Fatal("missing guest accepted")
	}
	if _, err := Launch(Config{Guest: g, Clock: clock}); err == nil {
		t.Fatal("missing cache size accepted")
	}
	if _, err := Launch(Config{Guest: g, Clock: clock, CacheBytes: 1 << 20, HotFraction: 2}); err == nil {
		t.Fatal("bad hot fraction accepted")
	}
}

func TestRunServesAndWrites(t *testing.T) {
	app, g, _ := launch(t, false)
	g.Dom.EnableLogDirty()
	app.Run(2 * time.Second)
	if app.TotalOps < 15000 {
		t.Fatalf("ops = %v, want ~20000", app.TotalOps)
	}
	if g.Dom.DirtyCount() == 0 {
		t.Fatal("no cache writes observed")
	}
}

func TestColdRegionGeometry(t *testing.T) {
	app, _, _ := launch(t, false)
	cold := app.ColdRegion()
	if cold.Start <= app.Region().Start || cold.End != app.Region().End {
		t.Fatalf("cold region %v within %v", cold, app.Region())
	}
	// Hot fraction 0.25: cold is 75 % of the cache.
	if got := float64(cold.Len()) / float64(app.Region().Len()); got < 0.74 || got > 0.76 {
		t.Fatalf("cold fraction = %v", got)
	}
}

func TestPurgeAndRefillCycle(t *testing.T) {
	app, g, clock := launch(t, true)
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	// Cold region skip-marked.
	tb := g.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != app.ColdRegion().Pages() {
		t.Fatalf("skipped = %d, want cold pages %d", skipped, app.ColdRegion().Pages())
	}
	daemon.Notify(guestos.EvEnteringLastIter{})
	if app.Purges != 1 {
		t.Fatalf("Purges = %d", app.Purges)
	}
	if app.HitRatio() >= 1.0 {
		t.Fatal("hit ratio did not drop after purge")
	}
	daemon.Notify(guestos.EvVMResumed{})

	// Refill: hit ratio climbs back to 1 as misses rebuild the tail.
	low := app.HitRatio()
	for i := 0; i < 100 && app.HitRatio() < 1.0; i++ {
		app.Run(time.Second)
	}
	if app.HitRatio() != 1.0 {
		t.Fatalf("cache never refilled: HitRatio = %v", app.HitRatio())
	}
	if low >= 1.0 {
		t.Fatal("purge had no effect")
	}
	if app.PurgedRegion().Len() != 0 {
		t.Fatal("purged region non-empty after refill")
	}
	_ = clock
}

func TestThroughputDipsAfterPurge(t *testing.T) {
	app, g, _ := launch(t, true)
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	app.Run(time.Second)
	before := app.TotalOps

	daemon.Notify(guestos.EvMigrationBegin{})
	daemon.Notify(guestos.EvEnteringLastIter{})
	daemon.Notify(guestos.EvVMResumed{})
	app.Run(time.Second)
	dip := app.TotalOps - before
	if dip >= before {
		t.Fatalf("post-purge throughput %v not below pre-purge %v", dip, before)
	}
}

// TestAssistedMigrationSkipsColdTail migrates a VM running the cache app and
// checks that the cold tail was skipped, the hot head arrived intact, and
// the purged predicate makes verification pass.
func TestAssistedMigrationSkipsColdTail(t *testing.T) {
	app, g, clock := launch(t, true)
	app.Run(5 * time.Second)

	dest := migration.NewDestination(g.Dom.NumPages())
	src := migration.NewSource(g, netsim.NewLink(clock, 50*1000*1000, 0), dest, app,
		migration.Config{Mode: migration.ModeAppAssisted})
	rep, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	// Traffic well below a full memory copy: the cold tail (48 MiB of the
	// 256 MiB VM) never crossed the wire.
	if rep.TotalBytes() >= g.Dom.MemoryBytes() {
		t.Fatalf("traffic %d >= memory %d despite skipping", rep.TotalBytes(), g.Dom.MemoryBytes())
	}
	if err := src.Verify(rep, nil); err != nil {
		t.Fatal(err)
	}
	// Hot pages specifically must match at the destination.
	hot := mem.VARange{Start: app.Region().Start, End: app.hotEnd}
	var bad int
	app.Proc().AS.Walk(hot, func(va mem.VA, p mem.PFN) {
		if g.Dom.Store().Version(p) != dest.Store.Version(p) {
			bad++
		}
	})
	if bad != 0 {
		t.Fatalf("%d hot cache pages diverge at destination", bad)
	}

	vanillaTraffic := func() uint64 {
		app2, g2, clock2 := launch(t, false)
		app2.Run(5 * time.Second)
		src2 := migration.NewSource(g2, netsim.NewLink(clock2, 50*1000*1000, 0),
			migration.NewDestination(g2.Dom.NumPages()), app2,
			migration.Config{Mode: migration.ModeVanilla})
		rep2, err := src2.Migrate()
		if err != nil {
			t.Fatal(err)
		}
		return rep2.TotalBytes()
	}()
	if rep.TotalBytes() >= vanillaTraffic {
		t.Fatalf("assisted traffic %d >= vanilla %d", rep.TotalBytes(), vanillaTraffic)
	}
}
