package main

// serve-mix runs an in-process rxld as a closed loop: two clients, each
// waiting for its result before sending the next request. 90% of requests
// repeat a hot set of small grid and scenario specs, warmed at set-up, so
// they are cache hits that bypass every engine; 10% carry a fresh seed, so
// they miss, queue, run on the runner and core, and write the cache. A
// change that speeds one path at the other's cost shows in both the
// latency split and jobs_per_s.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	serveGridN     = 400 // payloads per grid job
	serveScenarioN = 40  // payloads per flow of a scenario job
	// hotSpecs is the size of the repeated set: one scenario spec and
	// five grid specs. A scenario hit returns ~5x the bytes of a grid hit
	// and takes ~2x as long, so an even split would put the median hit
	// between the two modes, where it jumps from run to run.
	hotSpecs    = 6
	missEvery   = 10 // one request in missEvery is a fresh spec
	roundLen    = 50 // requests per client per round
	serveSetups = 15 // set-ups timed; the last server is measured
)

// serveSpec is the request template: an RXL grid job, or a 4×4 mesh
// scenario job, both at BER 1e-5.
func serveSpec(scenario bool, seed uint64) service.JobSpec {
	if !scenario {
		return service.JobSpec{Kind: service.KindGrid, Seed: seed, Grid: &core.Grid{
			Base:      core.Config{BurstProb: 0.4},
			Protocols: []link.Protocol{link.ProtocolRXL},
			Levels:    []int{1},
			BERs:      []float64{1e-5},
			Seeds:     []uint64{seed},
			N:         serveGridN,
		}}
	}
	return service.JobSpec{Kind: service.KindScenario, Seed: seed, Scenario: &core.ScenarioGrid{
		Base:       core.Config{Protocol: link.ProtocolRXL, BER: 1e-5, BurstProb: 0.4, Seed: seed},
		Topologies: []core.Topology{{Kind: core.TopoMesh, W: 4, H: 4}},
		Workloads:  []workload.Spec{{Kind: workload.KindUniform, Flows: 6}},
		N:          serveScenarioN,
	}}
}

// request is the op-th request of a run: a hot spec index, or -1 with a
// fresh spec.
func request(seed uint64, hot []service.JobSpec, op int) (int, service.JobSpec) {
	r := runner.ShardSeed(seed, op)
	if r%missEvery != 0 {
		i := int(r / missEvery % uint64(len(hot)))
		return i, hot[i]
	}
	return -1, serveSpec(r/missEvery%2 == 1, runner.ShardSeed(^seed, op))
}

// outcome is one served request.
type outcome struct {
	latency   float64 // seconds, submit to result
	cached    bool
	result    []byte
	wait, run float64 // miss only: queue wait and engine time, seconds
	c         counts  // miss only: the result's simulated counts
	err       error
}

func runServeMix(seed uint64, window time.Duration, tr *tracer, rep *report) error {
	hot := make([]service.JobSpec, hotSpecs)
	for i := range hot {
		hot[i] = serveSpec(i == 0, runner.ShardSeed(seed, -1-i))
	}
	var (
		srv  *service.Server
		want [][]byte
	)
	for range serveSetups {
		if srv != nil {
			srv.Close()
		}
		var got [][]byte
		var err error
		rep.setup = append(rep.setup, timeIt(func() { srv, got, err = startServer(hot) }))
		if err != nil {
			return err
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				rep.check(fmt.Errorf("hot spec %d: result bytes differ between set-ups", i))
			}
		}
		want = got
	}
	defer srv.Close()
	cl := service.NewInProcessClient(srv)

	var hits, misses, waits, runs, clientPart []float64
	err := measure(window, rep, func(iter int) error {
		outs := make([][]outcome, workers)
		var wg sync.WaitGroup
		wall := timeIt(func() {
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range roundLen {
						op := (iter*workers+w)*roundLen + k
						i, spec := request(seed, hot, op)
						o := serve(cl, tr, op, spec)
						if o.err == nil && i >= 0 && !bytes.Equal(o.result, want[i]) {
							o.err = fmt.Errorf("request %d: hit bytes differ from the hot spec's miss", op)
						}
						outs[w] = append(outs[w], o)
					}
				}()
			}
			wg.Wait()
		})
		var c counts
		for _, ws := range outs {
			for _, o := range ws {
				rep.check(o.err)
				rep.ops = append(rep.ops, o.latency)
				if o.cached {
					hits = append(hits, o.latency)
					continue
				}
				misses = append(misses, o.latency)
				waits = append(waits, o.wait)
				runs = append(runs, o.run)
				clientPart = append(clientPart, o.latency-o.wait-o.run)
				c.add(o.c)
			}
		}
		rep.wall = append(rep.wall, wall)
		rep.payloads = append(rep.payloads, float64(c.Delivered)/wall)
		if iter == 0 {
			rep.counts = c
		}
		return nil
	})
	if err != nil || tr == nil {
		return err
	}
	st := srv.Stats()
	rep.perLayer["service.queue_wait_ms"] = 1e3 * median(waits)
	rep.perLayer["service.run_ms"] = 1e3 * median(runs)
	rep.perLayer["service.client_ms"] = 1e3 * median(clientPart)
	rep.perLayer["service.hit_p50_us"] = 1e6 * median(hits)
	rep.perLayer["service.hit_p99_us"] = 1e6 * quantile(hits, 0.99)
	rep.perLayer["service.miss_p50_ms"] = 1e3 * median(misses)
	rep.perLayer["service.miss_p99_ms"] = 1e3 * quantile(misses, 0.99)
	rep.perLayer["service.hit_ratio"] = float64(len(hits)) / float64(len(hits)+len(misses))
	rep.perLayer["service.dedup_joins"] = float64(st.DedupHits)
	return nil
}

// startServer builds a server and warms it with the hot set, returning
// each hot spec's result bytes.
func startServer(hot []service.JobSpec) (*service.Server, [][]byte, error) {
	srv, err := service.New(service.Config{ShardBudget: workers})
	if err != nil {
		return nil, nil, err
	}
	cl := service.NewInProcessClient(srv)
	res := make([][]byte, len(hot))
	for i, spec := range hot {
		raw, err := cl.Run(context.Background(), spec)
		if err == nil {
			_, err = checkResult(spec, raw)
		}
		if err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("warm hot spec %d: %w", i, err)
		}
		res[i] = raw
	}
	return srv, res, nil
}

// serve submits spec and waits for its result, as an rxld caller does.
func serve(cl *service.Client, tr *tracer, op int, spec service.JobSpec) (o outcome) {
	ctx := context.Background()
	root := tr.start("service.request", 0, op)
	defer tr.end(root)
	start := time.Now()
	var v service.JobView
	var err error
	tr.do("service.submit", root, op, func() { v, err = cl.Submit(ctx, spec) })
	if err == nil && !v.Status.Terminal() {
		tr.do("service.wait", root, op, func() { v, err = cl.Wait(ctx, v.ID) })
	}
	o.latency = time.Since(start).Seconds()
	switch {
	case err != nil:
		o.err = fmt.Errorf("request %d: %w", op, err)
	case v.Status != service.StatusDone:
		o.err = fmt.Errorf("request %d: job %s %s: %s", op, v.ID, v.Status, v.Error)
	default:
		o.cached = v.Cached
		o.result = v.Result
		if !v.Cached {
			o.wait = v.StartedAt.Sub(v.SubmittedAt).Seconds()
			o.run = v.FinishedAt.Sub(v.StartedAt).Seconds()
			o.c, o.err = checkResult(spec, v.Result)
		}
	}
	return o
}

// checkResult decodes a job's result, requires every simulation in it to
// have delivered all it offered cleanly, and returns its counts.
func checkResult(spec service.JobSpec, raw []byte) (counts, error) {
	var c counts
	switch spec.Kind {
	case service.KindGrid:
		var rs []core.Result
		if err := json.Unmarshal(raw, &rs); err != nil {
			return c, err
		}
		if len(rs) == 0 {
			return c, fmt.Errorf("grid job returned no cells")
		}
		for _, r := range rs {
			if !r.Failures.Clean() || r.Failures.Delivered != r.Offered {
				return c, fmt.Errorf("grid cell not clean: %s", r)
			}
			c.addResult(r)
		}
	case service.KindScenario:
		var rs []core.ScenarioResult
		if err := json.Unmarshal(raw, &rs); err != nil {
			return c, err
		}
		if len(rs) == 0 {
			return c, fmt.Errorf("scenario job returned no cells")
		}
		for _, r := range rs {
			if err := checkMesh(r.Topology.Name()+" "+r.Workload.Name(), r.Result); err != nil {
				return c, err
			}
			c.addMesh(r.Result)
		}
	}
	return c, nil
}
