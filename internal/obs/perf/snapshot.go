package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// SchemaVersion identifies the snapshot wire format. Comparators refuse to
// diff snapshots with mismatched schemas rather than guessing.
const SchemaVersion = "javmm-bench/v1"

// Snapshot is one point on the performance trajectory: the output of a full
// javmm-bench run, committed to the repo as BENCH_NNNN.json once per
// perf-relevant PR. Every metric inside is classified as either
// deterministic (a function of the seed alone — byte-identical across runs
// and machines, compared for exact equality) or timing (a property of the
// machine and the moment — compared against per-metric thresholds).
type Snapshot struct {
	// Schema is always SchemaVersion.
	Schema string `json:"schema"`
	// Label is a free-form tag for the run ("baseline", a git describe…).
	Label string `json:"label,omitempty"`
	// Seed is the single deterministic seed the whole matrix ran at.
	Seed int64 `json:"seed"`
	// Go/OS/Arch describe the toolchain that produced the timing numbers;
	// informational only, never compared.
	Go   string `json:"go,omitempty"`
	OS   string `json:"os,omitempty"`
	Arch string `json:"arch,omitempty"`
	// Scenarios are the end-to-end matrix entries, sorted by name.
	Scenarios []Scenario `json:"scenarios"`
	// Kernels are the hot-loop microbenchmarks, sorted by name.
	Kernels []Kernel `json:"kernels"`
}

// Scenario is one end-to-end migration run of the matrix.
type Scenario struct {
	// Name is the stable matrix key, e.g. "e2e/derby/javmm/raw".
	Name string `json:"name"`
	// Deterministic holds the seed-determined outcome of the run.
	Deterministic Deterministic `json:"deterministic"`
	// Timing holds the machine-dependent real-clock measurements.
	Timing Timing `json:"timing"`
	// Stages is the per-stage wall/allocation breakdown from the
	// instrumented accounting run, in canonical stage order.
	Stages []StageShare `json:"stages,omitempty"`
}

// Kernel is one microbenchmark (a hot loop measured in isolation).
type Kernel struct {
	// Name is the stable kernel key, e.g. "kernel/mem/page-digest-4k".
	Name string `json:"name"`
	// Deterministic is an optional seed-determined check value (e.g. the
	// digest the kernel computed) proving the kernel did the same work.
	Deterministic map[string]int64 `json:"deterministic,omitempty"`
	Timing        Timing           `json:"timing"`
}

// Deterministic is the seed-determined section of a scenario: every field is
// a pure function of (seed, config) under the virtual clock, so two runs of
// the same binary — or of two binaries with behaviorally identical engines —
// must agree exactly. Any drift here is a correctness change, not noise.
type Deterministic struct {
	Mode               string `json:"mode"`
	Workload           string `json:"workload"`
	Codec              string `json:"codec"`
	TotalVirtualNs     int64  `json:"total_virtual_ns"`
	VMDowntimeNs       int64  `json:"vm_downtime_ns"`
	WorkloadDowntimeNs int64  `json:"workload_downtime_ns"`
	Iterations         int    `json:"iterations"`
	PagesSent          int64  `json:"pages_sent"`
	PagesSkipped       int64  `json:"pages_skipped"`
	BytesOnWire        int64  `json:"bytes_on_wire"`
	PostCopyFaults     int64  `json:"post_copy_faults"`
	EnforcedGC         bool   `json:"enforced_gc"`
	// RollingDigest folds the destination's final per-page digests into one
	// value (hex) — the strongest cheap witness that page *content* matched.
	RollingDigest string `json:"rolling_digest,omitempty"`
}

// Timing is the machine-dependent section: real-clock medians over Runs
// repetitions. Compared with per-metric relative thresholds, never equality.
type Timing struct {
	// Runs is how many timed repetitions the medians were taken over.
	Runs int `json:"runs"`
	// NsPerOp is the median wall time of one operation (one full migration
	// for scenarios; one kernel iteration for kernels).
	NsPerOp int64 `json:"ns_per_op"`
	// AllocBytesPerOp / AllocsPerOp are per-operation heap allocation.
	AllocBytesPerOp int64 `json:"alloc_bytes_per_op"`
	AllocsPerOp     int64 `json:"allocs_per_op"`
	// PagesPerSec is throughput for page-oriented operations (0 when not
	// applicable), derived as pages-processed / wall-seconds.
	PagesPerSec float64 `json:"pages_per_sec,omitempty"`
}

// StageShare is one stage's slice of a scenario's instrumented run.
type StageShare struct {
	Stage string `json:"stage"`
	Calls uint64 `json:"calls"`
	// SelfNs / TotalNs mirror StageStats.
	SelfNs  int64 `json:"self_ns"`
	TotalNs int64 `json:"total_ns"`
	// AllocBytes is always 0. The stage profiler no longer attributes
	// allocation to stages — a per-call allocation read cost more than the
	// stages it measured — and reads it per engine iteration instead; the
	// field stays so javmm-bench/v1 snapshots keep one shape.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Share is SelfNs over the instrumented run's wall time, in [0,1].
	// Informational: shares come from the accounting run, not the timing
	// runs, and are never gated on.
	Share float64 `json:"share"`
}

// Normalize sorts the snapshot into canonical order (scenarios and kernels
// by name, kernel deterministic keys are maps so they sort at encode time).
func (s *Snapshot) Normalize() {
	sort.Slice(s.Scenarios, func(i, j int) bool { return s.Scenarios[i].Name < s.Scenarios[j].Name })
	sort.Slice(s.Kernels, func(i, j int) bool { return s.Kernels[i].Name < s.Kernels[j].Name })
}

// WriteSnapshot writes the snapshot as indented JSON. The snapshot is
// normalized first, so the same content always serializes identically.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	s.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot and checks its schema version.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("perf: reading snapshot: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: snapshot schema %q, want %q", s.Schema, SchemaVersion)
	}
	s.Normalize()
	return &s, nil
}

// ReadSnapshotFile reads a snapshot from disk.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// detSection is the deterministic-only projection serialized by
// DeterministicBytes.
type detSection struct {
	Schema    string `json:"schema"`
	Seed      int64  `json:"seed"`
	Scenarios []struct {
		Name          string        `json:"name"`
		Deterministic Deterministic `json:"deterministic"`
	} `json:"scenarios"`
	Kernels []struct {
		Name          string           `json:"name"`
		Deterministic map[string]int64 `json:"deterministic,omitempty"`
	} `json:"kernels"`
}

// DeterministicBytes serializes only the deterministic sections of the
// snapshot, canonically. Two runs at the same seed must produce byte-equal
// results here — this is what the harness's self-check and CI assert.
func (s *Snapshot) DeterministicBytes() []byte {
	s.Normalize()
	var d detSection
	d.Schema = s.Schema
	d.Seed = s.Seed
	for _, sc := range s.Scenarios {
		d.Scenarios = append(d.Scenarios, struct {
			Name          string        `json:"name"`
			Deterministic Deterministic `json:"deterministic"`
		}{sc.Name, sc.Deterministic})
	}
	for _, k := range s.Kernels {
		d.Kernels = append(d.Kernels, struct {
			Name          string           `json:"name"`
			Deterministic map[string]int64 `json:"deterministic,omitempty"`
		}{k.Name, k.Deterministic})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		// Plain data structs with no cycles or unsupported types: Encode
		// cannot fail without a programming error.
		panic("perf: encoding deterministic section: " + err.Error())
	}
	return buf.Bytes()
}

// AnalyzeSchemaVersion identifies the javmm-analyze -json document format.
const AnalyzeSchemaVersion = "javmm-analyze/v1"

// AnalyzeDoc is the machine-readable output of javmm-analyze -json. It
// shares the Deterministic metric block with bench snapshots, so trajectory
// tooling can diff an analyze run against a bench scenario directly.
type AnalyzeDoc struct {
	Schema string `json:"schema"`
	// Source describes the analyzed input (spec string for -run).
	Source string `json:"source"`
	Seed   int64  `json:"seed"`
	// Deterministic is the same block a bench scenario carries.
	Deterministic Deterministic `json:"deterministic"`
	// Components is downtime attribution: component name → nanoseconds,
	// sorted by key at encode time (Go maps marshal with sorted keys).
	Components map[string]int64 `json:"components,omitempty"`
}

// WriteAnalyzeDoc writes the document as indented JSON.
func WriteAnalyzeDoc(w io.Writer, d *AnalyzeDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadAnalyzeDoc parses a document written by WriteAnalyzeDoc.
func ReadAnalyzeDoc(r io.Reader) (*AnalyzeDoc, error) {
	var d AnalyzeDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("perf: reading analyze doc: %w", err)
	}
	if d.Schema != AnalyzeSchemaVersion {
		return nil, fmt.Errorf("perf: analyze doc schema %q, want %q", d.Schema, AnalyzeSchemaVersion)
	}
	return &d, nil
}
