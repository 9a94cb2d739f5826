package javmm_test

import (
	"testing"
	"time"

	"javmm"
)

func bootDerby(t *testing.T, assisted bool) *javmm.VM {
	t.Helper()
	prof, err := javmm.Workload("derby")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := javmm.BootVM(javmm.BootConfig{Profile: prof, Assisted: assisted, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	vm.Driver.Run(90 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	return vm
}

func TestPublicAPICatalog(t *testing.T) {
	if len(javmm.Workloads()) != 9 {
		t.Fatalf("workloads = %d", len(javmm.Workloads()))
	}
	names := javmm.WorkloadNames()
	if names[0] != "derby" {
		t.Fatalf("names = %v", names)
	}
	if _, err := javmm.Workload("nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPublicAPIMigrateXen(t *testing.T) {
	vm := bootDerby(t, false)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeXen})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if res.TotalTime <= 0 || res.TotalBytes() == 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.EnforcedGC != 0 {
		t.Fatal("vanilla migration performed an enforced GC")
	}
}

func TestPublicAPIMigrateJAVMM(t *testing.T) {
	vm := bootDerby(t, true)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if res.EnforcedGC <= 0 {
		t.Fatal("no enforced GC recorded")
	}
	if res.WorkloadDowntime <= res.VMDowntime {
		t.Fatal("workload downtime must include the enforced GC")
	}
	// The VM keeps running after migration.
	before := vm.Driver.TotalOps
	vm.Driver.Run(10 * time.Second)
	if vm.Driver.TotalOps <= before {
		t.Fatal("VM not running after migration")
	}
}

func TestPublicAPIRepeatedMigration(t *testing.T) {
	vm := bootDerby(t, true)
	for round := 1; round <= 2; round++ {
		res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("round %d: %v", round, res.VerifyErr)
		}
		vm.Driver.Run(30 * time.Second)
		if vm.Driver.Err != nil {
			t.Fatalf("round %d: %v", round, vm.Driver.Err)
		}
	}
}

func TestPublicAPIJAVMMRequiresAgent(t *testing.T) {
	vm := bootDerby(t, false)
	// No agent: the LKM times out waiting for suspension-readiness and
	// falls back to full transfer — migration still completes correctly.
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

func TestPublicAPISkipVerifyAndEngineOptions(t *testing.T) {
	vm := bootDerby(t, true)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:       javmm.ModeJAVMM,
		SkipVerify: true,
		Latency:    time.Millisecond,
		Engine: javmm.EngineConfig{
			MaxIterations: 10,
			ChunkPages:    256,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal("SkipVerify still verified")
	}
	if res.LiveIterations() > 12 {
		t.Fatalf("engine override ignored: %d live iterations", res.LiveIterations())
	}
}

func TestPublicAPICancelledMigration(t *testing.T) {
	vm := bootDerby(t, false)
	_, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:   javmm.ModeXen,
		Engine: javmm.EngineConfig{CancelAfter: 2 * time.Second},
	})
	if err == nil {
		t.Fatal("cancelled migration reported success")
	}
	// The VM keeps running at the source and can be migrated again.
	vm.Driver.Run(5 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeXen})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

func TestPublicAPIFasterLink(t *testing.T) {
	a := bootDerby(t, false)
	slow, err := javmm.Migrate(a, javmm.MigrateOptions{Mode: javmm.ModeXen})
	if err != nil {
		t.Fatal(err)
	}
	b := bootDerby(t, false)
	fast, err := javmm.Migrate(b, javmm.MigrateOptions{
		Mode:      javmm.ModeXen,
		Bandwidth: javmm.TenGigabitEthernet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalTime >= slow.TotalTime {
		t.Fatalf("10GbE migration (%v) not faster than 1GbE (%v)", fast.TotalTime, slow.TotalTime)
	}
}

func TestPublicAPIPostCopy(t *testing.T) {
	vm := bootDerby(t, false)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModePostCopy})
	if err != nil {
		t.Fatal(err)
	}
	if pc := res.PostCopy; pc == nil || pc.Faults == 0 {
		t.Fatalf("post-copy stats = %+v", pc)
	}
	// Post-copy downtime is far below pre-copy's for this workload.
	if res.VMDowntime > time.Second {
		t.Fatalf("post-copy downtime = %v", res.VMDowntime)
	}
	// The VM keeps running afterwards.
	before := vm.Driver.TotalOps
	vm.Driver.Run(5 * time.Second)
	if vm.Driver.TotalOps <= before {
		t.Fatal("VM not running after post-copy")
	}
}

func TestPublicAPIG1Migration(t *testing.T) {
	prof, err := javmm.Workload("derby")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := javmm.BootVM(javmm.BootConfig{
		Profile:   prof,
		Assisted:  true,
		Seed:      4,
		Collector: javmm.CollectorG1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Driver.Run(90 * time.Second)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	// The regional collector with growth reporting still skips the bulk
	// of the young generation.
	var skipped uint64
	for _, it := range res.Iterations {
		skipped += it.PagesSkippedBitmap
	}
	if skipped == 0 {
		t.Fatal("G1 migration skipped nothing")
	}
}

func TestPublicAPIReplicate(t *testing.T) {
	vm := bootDerby(t, true)
	rep, err := javmm.Replicate(vm, 3*time.Second, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) < 2 {
		t.Fatalf("epochs = %d", len(rep.Epochs))
	}
	if rep.Deprotected == 0 {
		t.Fatal("deprotection omitted nothing on derby")
	}
	// The VM can still be migrated afterwards (LKM reset).
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

func TestPublicAPIMultiplex(t *testing.T) {
	vm := bootDerby(t, true)
	cache, err := javmm.AttachCacheApp(vm, 0x300000000, 64<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	both := javmm.Multiplex(vm.Driver, cache)
	start := vm.Clock.Now()
	both.Run(10 * time.Second)
	if got := vm.Clock.Now() - start; got != 10*time.Second {
		t.Fatalf("Multiplex advanced %v, want 10s", got)
	}
	if cache.TotalOps == 0 || vm.Driver.TotalOps == 0 {
		t.Fatal("one executor starved under multiplexing")
	}
	// Each executor got roughly half the CPU.
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeJAVMM, Executor: both})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}

func TestPublicAPIMultiplexValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Multiplex accepted")
		}
	}()
	javmm.Multiplex()
}

func TestPublicAPICacheVM(t *testing.T) {
	app, g, clock, err := javmm.NewCacheVM(512<<20, 128<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	app.Run(5 * time.Second)
	// Purged pages are legitimately stale at the destination; collect them
	// after the migration's purge by deferring predicate construction.
	purged := map[javmm.PFN]bool{}
	res, err := javmm.MigrateCustom(g, app, javmm.MigrateOptions{
		Mode:      javmm.ModeJAVMM,
		Bandwidth: 50 * 1000 * 1000,
	}, func(p javmm.PFN) bool {
		if len(purged) == 0 {
			app.Proc().AS.Walk(app.PurgedRegion(), func(_ javmm.VA, q javmm.PFN) { purged[q] = true })
		}
		return !purged[p]
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if res.TotalBytes() >= g.Dom.MemoryBytes() {
		t.Fatal("cold cache tail was not skipped")
	}
	_ = clock
}

// Engine.SkipFreePages and Engine.HintedCompression read the guest's free
// list and the LKM's per-page hints; Migrate must wire both, or the options
// silently do nothing.
func TestPublicAPIGuestHookOptions(t *testing.T) {
	vm := bootSmall(t, false, 3)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:   javmm.ModeXen,
		Engine: javmm.EngineConfig{SkipFreePages: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	var freeSkipped uint64
	for _, it := range res.Iterations {
		freeSkipped += it.PagesSkippedFree
	}
	if freeSkipped == 0 {
		t.Fatal("SkipFreePages skipped no free page")
	}

	prof, err := javmm.Workload("derby")
	if err != nil {
		t.Fatal(err)
	}
	prof.MaxYoungBytes = 256 << 20 // fits the 1 GiB VM, as in bootSmall
	if prof.InitialYoungBytes > prof.MaxYoungBytes {
		prof.InitialYoungBytes = prof.MaxYoungBytes
	}
	wireBytes := func(hinted bool) uint64 {
		vm, err := javmm.BootVM(javmm.BootConfig{
			MemBytes: 1 << 30, Profile: prof, Assisted: true, Seed: 3, AgentHints: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		vm.Driver.Run(20 * time.Second)
		res, err := javmm.Migrate(vm, javmm.MigrateOptions{
			Mode:   javmm.ModeJAVMM,
			Engine: javmm.EngineConfig{Compress: true, HintedCompression: hinted},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyErr != nil {
			t.Fatal(res.VerifyErr)
		}
		return res.TotalBytes()
	}
	if plain, hinted := wireBytes(false), wireBytes(true); plain == hinted {
		t.Fatalf("HintedCompression left the wire bytes unchanged (%d)", plain)
	}
}
