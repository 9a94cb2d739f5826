package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span names: one per layer boundary the benchmark wraps from outside.
const (
	spanOp          = "op"                // one operation (a cell or a plan)
	spanBoot        = "workload.boot"     // javmm.BootVM
	spanWarmup      = "workload.warmup"   // Driver.Run(warmup)
	spanMigrate     = "migration.migrate" // javmm.Migrate
	spanExec        = "workload.exec"     // one executor call from the engine
	spanVerify      = "migration.verify"  // migration.VerifyMigration
	spanAttribute   = "obs.attribute"     // javmm.Attribute
	spanExport      = "obs.export"        // trace and metrics writers
	spanOrchestrate = "fleet.orchestrate" // javmm.Orchestrate
	noParent        = int32(-1)           // parent index of a root span
	spanCapHint     = 1 << 16             // initial span buffer
)

// span is one timed call into a layer: its name, the operation it belongs
// to, the span that caused it, and its bounds in ns since the recorder
// started.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op, so the timed runs pay only a nil
// check at each boundary.
type recorder struct {
	t0    time.Time
	op    int32
	spans []span
	stack []int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, spanCapHint)}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return noParent
	}
	parent := noParent
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		name: name, op: r.op, parent: parent,
		start: int64(time.Since(r.t0)),
	})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// nextOp starts a new operation id for the spans that follow.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// layerTimes sums, per span name, total duration and self time (duration
// minus the part of the interval its children cover), and counts calls.
type layerTimes struct {
	total map[string]time.Duration
	self  map[string]time.Duration
	calls map[string]int
}

func (r *recorder) layers() layerTimes {
	lt := layerTimes{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		calls: map[string]int{},
	}
	children := make([][]int32, len(r.spans))
	for i, s := range r.spans {
		if s.parent != noParent {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range r.spans {
		d := time.Duration(s.end - s.start)
		lt.total[s.name] += d
		lt.self[s.name] += d - covered(r.spans, children[i])
		lt.calls[s.name]++
	}
	return lt
}

// covered is the length of the union of the child spans' intervals.
func covered(spans []span, kids []int32) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{spans[k].start, spans[k].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return time.Duration(sum + hi - lo)
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range r.spans {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Op      int32  `json:"op"`
			Parent  int32  `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{i, s.name, s.op, s.parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
