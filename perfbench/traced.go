package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"time"

	"javmm"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A workload that bypasses a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"workload.boot_s", "s"},
	{"workload.warmup_s", "s"},
	{"workload.exec_s", "s"},
	{"workload.exec_calls", "count"},
	{"hypervisor.writes", "count"},
	{"jvm.minor_gcs", "count"},
	{"workload.ns_per_write", "ns"},
	{"migration.self_s", "s"},
	{"migration.ns_per_page", "ns"},
	{"migration.verify_s", "s"},
	{"migration.iterations", "count"},
	{"migration.pages_sent", "count"},
	{"migration.pages_skipped", "count"},
	{"migration.postcopy_faults", "count"},
	{"migration.send_amplification", "ratio"},
	{"simclock.ns_per_vm_virt_s", "ns"},
	{"netsim.transfers", "count"},
	{"netsim.max_concurrent", "count"},
	{"netsim.utilization", "fraction"},
	{"netsim.queueing_s", "s"},
	{"netsim.stall_s", "s"},
	{"netsim.conservation_residue_bytes", "bytes"},
	{"fleet.orchestrate_s", "s"},
	{"fleet.moves", "count"},
	{"fleet.attempts", "count"},
	{"fleet.attempts_per_move", "ratio"},
	{"fleet.relocations", "count"},
	{"fleet.deferrals", "count"},
	{"fleet.admission_wait_s", "s"},
	{"fleet.heal_backoff_s", "s"},
	{"fleet.token_saved_gib", "GiB"},
	{"obs.trace_s", "s"},
	{"obs.metrics_s", "s"},
	{"obs.ledger_s", "s"},
	{"obs.perf_s", "s"},
	{"obs.perf_overhead_ratio", "ratio"},
	{"obs.attribute_s", "s"},
	{"obs.export_s", "s"},
	{"obs.trace_events", "count"},
	{"trace.setup_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unaccounted_s", "s"},
}

// accountingSlack bounds the gap between a phase's stopwatch and the sum of
// its layer spans: the few span-recording calls outside any span.
const accountingSlack = time.Millisecond

// tracedRun is the per-layer run: one untraced pass (the baseline for the
// tracing overhead), then one pass recording a span at every layer
// boundary, then, for planed cells, one bare and one single-plane migration
// per plane. Both passes go through the correctness gate.
func tracedRun(o options, ops []operation, sz sizes, g *gate, log io.Writer) (result, []opRecord, error) {
	base, err := runPass(ops, o.seed, sz, nil, g)
	if err != nil {
		return result{}, nil, err
	}
	rec := newRecorder()
	traced, err := runPass(ops, o.seed, sz, rec, g)
	if err != nil {
		return result{}, nil, err
	}
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, rec); err != nil {
			return result{}, nil, err
		}
	}
	v := map[string]float64{}
	if err := layerMetrics(v, rec, base, traced); err != nil {
		return result{}, nil, &gateError{attempted: g.attempted, err: err}
	}
	if err := planeCosts(v, ops, o.seed, sz, g); err != nil {
		return result{}, nil, err
	}
	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{v[l.name], l.unit}
	}
	fmt.Fprintf(log, "%s traced: wall %.3fs, untraced %.3fs\n", o.workload, v["trace.wall_s"], v["trace.untraced_wall_s"])
	return result{Correct: true, Attempted: g.attempted, Metrics: m}, g.first, nil
}

// layerMetrics derives the per-layer numbers from the traced pass's spans
// and results, and checks that the layers account for each phase.
func layerMetrics(v map[string]float64, rec *recorder, base, traced []sample) error {
	lt := rec.layers()
	var setup, wall, untraced time.Duration
	var sent, skipped, pages, writes uint64
	var virt time.Duration
	for i, s := range traced {
		setup += s.setup
		wall += s.wall
		untraced += base[i].wall
		virt += s.vmVirt
		writes += s.writes
		v["jvm.minor_gcs"] += float64(s.minorGCs)
		v["obs.trace_events"] += float64(s.traceEvents)
		if s.plan != nil {
			planMetrics(v, s.plan)
			continue
		}
		pages += s.vmPages
		d := s.rec.Det[0]
		sent += uint64(d.PagesSent)
		skipped += uint64(d.PagesSkipped)
		v["migration.iterations"] += float64(d.Iterations)
		v["migration.postcopy_faults"] += float64(d.PostCopyFaults)
	}
	sec := func(name string) float64 { return lt.total[name].Seconds() }
	v["workload.boot_s"] = sec(spanBoot)
	v["workload.warmup_s"] = sec(spanWarmup)
	v["workload.exec_s"] = sec(spanExec)
	v["workload.exec_calls"] = float64(lt.calls[spanExec])
	v["hypervisor.writes"] = float64(writes)
	v["migration.self_s"] = lt.self[spanMigrate].Seconds()
	v["migration.verify_s"] = sec(spanVerify)
	v["migration.pages_sent"] = float64(sent)
	v["migration.pages_skipped"] = float64(skipped)
	v["obs.attribute_s"] = sec(spanAttribute)
	v["obs.export_s"] = sec(spanExport)
	v["fleet.orchestrate_s"] = sec(spanOrchestrate)
	v["workload.ns_per_write"] = ratio(float64(lt.total[spanWarmup]+lt.total[spanExec]), float64(writes))
	v["migration.ns_per_page"] = ratio(float64(lt.self[spanMigrate]), float64(sent+skipped))
	v["migration.send_amplification"] = ratio(float64(sent), float64(pages))
	simulated := lt.total[spanWarmup] + lt.total[spanMigrate] + lt.total[spanOrchestrate]
	v["simclock.ns_per_vm_virt_s"] = ratio(float64(simulated), virt.Seconds())
	v["trace.setup_s"] = setup.Seconds()
	v["trace.wall_s"] = wall.Seconds()
	v["trace.untraced_wall_s"] = untraced.Seconds()
	v["trace.overhead_s"] = (wall - untraced).Seconds()

	// Every host second of the traced phases belongs to a layer span:
	// boot + warmup is set-up; engine self + executor + verify (+ attribute
	// and export) is the timed phase. evacuate's set-up builds the cluster
	// and plan outside any layer, and its timed phase is Orchestrate alone.
	layers := lt.total[spanMigrate] + lt.total[spanVerify] + lt.total[spanAttribute] +
		lt.total[spanExport] + lt.total[spanOrchestrate]
	unaccounted := wall - layers
	v["trace.unaccounted_s"] = unaccounted.Seconds()
	if unaccounted.Abs() > accountingSlack {
		return fmt.Errorf("layer spans cover %v of the %v timed phase", layers, wall)
	}
	if lt.calls[spanBoot] > 0 {
		if gap := setup - lt.total[spanBoot] - lt.total[spanWarmup]; gap.Abs() > accountingSlack {
			return fmt.Errorf("boot and warmup spans miss %v of the %v set-up", gap, setup)
		}
	}
	return nil
}

// planMetrics reads the netsim and fleet layers off an executed plan.
func planMetrics(v map[string]float64, p *javmm.PlanResult) {
	var transfers, maxConc uint64
	var queue, stall time.Duration
	var busiest javmm.LinkUsage
	for _, f := range p.Fabric.Flows {
		transfers += f.Transfers
		queue += f.Queueing
		stall += f.Stall
	}
	for _, u := range p.Fabric.Links {
		maxConc = max(maxConc, uint64(u.MaxConcurrent))
		if u.BytesSent > busiest.BytesSent {
			busiest = u
		}
	}
	v["netsim.transfers"] = float64(transfers)
	v["netsim.max_concurrent"] = float64(maxConc)
	v["netsim.utilization"] = busiest.Utilization
	v["netsim.queueing_s"] = queue.Seconds()
	v["netsim.stall_s"] = stall.Seconds()
	v["netsim.conservation_residue_bytes"] = residue(p.Fabric)

	var attempts, useful, reloc, defer_ int
	var wait, backoff time.Duration
	var saved uint64
	for i := range p.Moves {
		m := &p.Moves[i]
		attempts += len(m.Attempts)
		reloc += m.Relocations
		defer_ += m.Deferrals
		wait += m.LaunchedAt - m.EligibleAt
		backoff += m.HealBackoff
		saved += m.TokenSavedBytes
		if m.Outcome != javmm.MoveFailed && m.Outcome != javmm.MovePending {
			useful++
		}
		v["migration.iterations"] += float64(len(m.Report.Iterations))
	}
	v["fleet.moves"] = float64(len(p.Moves))
	v["fleet.attempts"] = float64(attempts)
	v["fleet.attempts_per_move"] = ratio(float64(attempts), float64(useful))
	v["fleet.relocations"] = float64(reloc)
	v["fleet.deferrals"] = float64(defer_)
	v["fleet.admission_wait_s"] = wait.Seconds()
	v["fleet.heal_backoff_s"] = backoff.Seconds()
	v["fleet.token_saved_gib"] = float64(saved) / (1 << 30)
}

// planeCosts prices each observability plane of the planed cells: per cell,
// one bare migration and one with each plane alone, each on a freshly booted
// and warmed VM, timing javmm.Migrate only. Workloads without planed cells
// report zeros.
func planeCosts(v map[string]float64, ops []operation, seed int64, sz sizes, g *gate) error {
	planes := []struct {
		p    planeSet
		name string
	}{{planeTrace, "obs.trace_s"}, {planeMetrics, "obs.metrics_s"}, {planeLedger, "obs.ledger_s"}, {planePerf, "obs.perf_s"}}
	var bare, perf time.Duration
	for _, op := range ops {
		c := op.cell
		if op.plan || c.planes == 0 {
			continue
		}
		c.planes = 0
		s, err := runCell(c, seed, sz, nil)
		g.attempted++
		if err != nil {
			return &gateError{attempted: g.attempted, err: fmt.Errorf("%s bare: %w", op.name(), err)}
		}
		bare += s.migrate
		for _, pl := range planes {
			c.planes = pl.p
			ps, err := runCell(c, seed, sz, nil)
			g.attempted++
			if err == nil && !reflect.DeepEqual(ps.rec, s.rec) {
				err = fmt.Errorf("attaching the plane changed the deterministic record")
			}
			if err != nil {
				return &gateError{attempted: g.attempted, err: fmt.Errorf("%s %s: %w", op.name(), pl.name, err)}
			}
			v[pl.name] += (ps.migrate - s.migrate).Seconds()
			if pl.p == planePerf {
				perf += ps.migrate
			}
		}
	}
	v["obs.perf_overhead_ratio"] = ratio(float64(perf), float64(bare))
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.writeJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// residue is the largest byte-conservation residue over the fabric's links.
func residue(r javmm.FabricReport) float64 {
	var worst float64
	for _, u := range r.Links {
		worst = math.Max(worst, u.ConservationError())
	}
	return worst
}
