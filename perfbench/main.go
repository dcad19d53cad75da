// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process for a fixed host-time window, checks every output
// for correctness, and prints one JSON result line:
//
//	perfbench --workload paper-sweep|mesh-clean|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no instrumentation. With --trace 1 the window is split: the first half
// runs untraced (the tracing-overhead reference), the second half records
// a span around every public call the benchmark makes and a CPU profile,
// and the result holds the per-layer metrics. Spans and the profile are
// written under .bench_build/trace/ when the run ends.
//
// The benchmark must run from the repository root: paper-sweep checks its
// report against the committed EXPERIMENTS.md there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// workers is the runner pool size and the serving client count: the
// benchmark host has two CPUs, and more would only time-share them.
const workers = 2

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload's measurements. Every timing slice
// keeps one sample per iteration (or per request), so medians and
// percentiles are taken over the whole window.
type report struct {
	attempted, failed int
	// firstErr is the first correctness failure, printed to stderr.
	firstErr error

	setup    []float64 // seconds per set-up
	wall     []float64 // seconds per iteration
	payloads []float64 // delivered payloads per host second, per iteration
	// ops holds the host seconds of every timed operation: a stage call
	// (paper-sweep), a fabric run (mesh-clean) or a request (serve-mix).
	ops    []float64
	window time.Duration

	// perLayer holds the traced half's layer metrics, keyed by name.
	perLayer map[string]float64
	counts   counts
}

// check records one attempted operation and whether it passed.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// repeatCounts keeps the first iteration's simulated counts and requires
// every later iteration, which repeats the same inputs, to match them.
func (r *report) repeatCounts(iter int, c counts) {
	if iter == 0 {
		r.counts = c
		return
	}
	var err error
	if c != r.counts {
		err = fmt.Errorf("iteration %d simulated counts %+v differ from the first %+v", iter, c, r.counts)
	}
	r.check(err)
}

// workloadFunc runs one workload. It measures set-up, then iterates until
// the window ends, recording into rep; tr is nil when untraced.
type workloadFunc func(seed uint64, window time.Duration, tr *tracer, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-sweep": runPaperSweep,
	"mesh-clean":  runMeshClean,
	"serve-mix":   runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, mesh-clean or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured host seconds")
	trace := flag.Int("trace", 0, "1 = per-layer run (spans + CPU profile), 0 = end-to-end run")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-sweep|mesh-clean|serve-mix, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, fn, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the workload and assembles the result line.
func run(name string, fn workloadFunc, seed uint64, window time.Duration, traced bool) (result, error) {
	heap := startHeapSampler()
	var rep report
	var err error
	if traced {
		err = runTraced(name, fn, seed, window, &rep)
	} else {
		err = fn(seed, window, nil, &rep)
	}
	peak := heap.stop()
	if err != nil {
		return result{}, err
	}
	if len(rep.wall) == 0 || rep.attempted == 0 {
		return result{}, errors.New("no iteration completed")
	}
	if rep.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", rep.firstErr)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{rep.perLayer[m.name], m.unit}
		}
		rep.counts.into(res.Metrics)
	} else {
		res.Metrics["setup_s"] = metric{median(rep.setup), "s"}
		res.Metrics["wall_s"] = metric{median(rep.wall), "s"}
		res.Metrics["payloads_per_s"] = metric{median(rep.payloads), "1/s"}
		res.Metrics["jobs_per_s"] = metric{float64(len(rep.ops)) / rep.window.Seconds(), "1/s"}
		res.Metrics["op_p50_ms"] = metric{1e3 * median(rep.ops), "ms"}
		res.Metrics["op_p95_ms"] = metric{1e3 * quantile(rep.ops, 0.95), "ms"}
		res.Metrics["peak_heap_mb"] = metric{peak / (1 << 20), "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: %s samples: setup=%d iterations=%d ops=%d window=%.2fs\n",
			name, len(rep.setup), len(rep.wall), len(rep.ops), rep.window.Seconds())
	}
	return res, nil
}

// measure runs iterate until window has elapsed (at least twice, so a
// median exists), and accounts the window for the throughput metrics.
func measure(window time.Duration, rep *report, iterate func(iter int) error) error {
	start := time.Now()
	for iter := 0; iter < 2 || time.Since(start) < window; iter++ {
		if err := iterate(iter); err != nil {
			return err
		}
	}
	rep.window += time.Since(start)
	return nil
}

// timeIt returns the host seconds fn took.
func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes by
// polling runtime/metrics, which reads without stopping the world.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, float64(sample[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
