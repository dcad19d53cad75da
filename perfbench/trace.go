package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// traceDir receives the spans and CPU profile of every traced run.
const traceDir = ".bench_build/trace"

// span is one timed public call. Spans of one operation (an iteration or
// a served request) share Op; Parent is 0 for an operation's root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the end-to-end run carries
// no instrumentation beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.start(name, parent, op)
	fn()
	t.end(id)
}

// perOp returns, for every operation that has spans named name, their
// summed duration in seconds.
func (t *tracer) perOp(name string) []float64 {
	sum := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sum[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sum[s.Op] += s.End - s.Start
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sum[op]
	}
	return out
}

// runTraced runs the workload twice for half the window each: untraced,
// as the overhead reference, then with spans and a CPU profile. The
// per-layer metrics come from the traced half; correctness counts both.
func runTraced(name string, fn workloadFunc, seed uint64, window time.Duration, rep *report) error {
	var ref report
	if err := fn(seed, window/2, nil, &ref); err != nil {
		return err
	}
	tr := newTracer()
	rep.perLayer = map[string]float64{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := fn(seed, window/2, tr, rep)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	rep.attempted += ref.attempted
	rep.failed += ref.failed
	if rep.firstErr == nil {
		rep.firstErr = ref.firstErr
	}
	if rep.counts != ref.counts {
		rep.check(fmt.Errorf("simulated counts differ between the untraced and traced halves: %+v vs %+v", ref.counts, rep.counts))
	}

	for _, m := range perLayerMetrics {
		if m.span != "" {
			rep.perLayer[m.name] = median(tr.perOp(m.span))
		}
	}
	self, err := foldProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("fold CPU profile: %w", err)
	}
	iters := float64(len(rep.wall))
	for _, pkg := range cpuPackages {
		rep.perLayer["cpu."+pkg+"_s"] = self[pkg] / iters
	}
	rep.perLayer["trace.overhead_wall_s"] = median(rep.wall) - median(ref.wall)
	rep.perLayer["trace.overhead_payloads_per_s"] = median(rep.payloads) - median(ref.payloads)
	printShares(name, self)

	return writeTrace(name, seed, tr.spans, prof.Bytes())
}

// printShares writes the per-package CPU split to stderr.
func printShares(name string, self map[string]float64) {
	var total float64
	for _, v := range self {
		total += v
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s CPU self time by package (%.2fs sampled):", name, total)
	for _, pkg := range cpuPackages {
		if total > 0 {
			fmt.Fprintf(os.Stderr, " %s=%.1f%%", pkg, 100*self[pkg]/total)
		}
	}
	fmt.Fprintln(os.Stderr)
}

func writeTrace(name string, seed uint64, spans []span, prof []byte) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	doc, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", doc, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
