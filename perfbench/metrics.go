package main

import (
	"repro/internal/core"
	"repro/internal/link"
)

// layerMetric is one per-layer metric of the traced run. When span is
// set the value is the median, over operations, of the time spent in
// spans of that name; otherwise the workload computes it.
type layerMetric struct {
	name, unit, span string
}

// perLayerMetrics lists every per-layer metric; a workload reports 0 for
// a layer it does not exercise. The simulated counts (counts.into) and
// the CPU self times (cpuPackages) complete the set.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"core.comparison_s", "s", "core.comparison"},
		{"core.grid_s", "s", "core.grid"},
		{"reliability.mc_s", "s", "reliability.mc"},
		{"core.scenarios_s", "s", "core.scenarios"},
		{"rarevent.is_sweep_s", "s", "rarevent.is_sweep"},
		{"rarevent.split_s", "s", "rarevent.split"},
		{"rarevent.selfcheck_s", "s", "rarevent.selfcheck"},
		{"workload.generate_s", "s", "workload.generate"},
		{"core.fabric_build_s", "s", "core.fabric_build"},
		{"core.run_s", "s", "core.run"},
		{"sim.ns_per_traversal", "ns", ""},
		{"service.queue_wait_ms", "ms", ""},
		{"service.run_ms", "ms", ""},
		{"service.client_ms", "ms", ""},
		{"service.hit_p50_us", "us", ""},
		{"service.hit_p99_us", "us", ""},
		{"service.miss_p50_ms", "ms", ""},
		{"service.miss_p99_ms", "ms", ""},
		{"service.hit_ratio", "ratio", ""},
		{"service.dedup_joins", "count", ""},
		{"trace.overhead_wall_s", "s", ""},
		{"trace.overhead_payloads_per_s", "1/s", ""},
	}
	for _, pkg := range cpuPackages {
		ms = append(ms, layerMetric{"cpu." + pkg + "_s", "s", ""})
	}
	return ms
}()

// counts are the exact simulated statistics of one iteration's engine
// runs. A simulator-only speed-up leaves them identical; a model change
// moves them.
type counts struct {
	FlitsIn, Forwarded                   uint64 // router traversals
	ExpressTraversals, ExpressFallbacks  uint64
	CorrectedFlits, DroppedUncorrectable uint64
	QueuePeak                            uint64 // max over runs
	Retransmissions, TimeoutRetries      uint64
	FecCorrectedFlits                    uint64
	Delivered                            uint64 // payloads delivered to the collectors
}

func (c *counts) addResult(r core.Result) {
	c.addRouters(r.Switches.FlitsIn, r.Switches.Forwarded, r.Switches.CorrectedFlits,
		r.Switches.DroppedUncorrectable, r.Switches.QueuePeak)
	c.addLinks(r.LinkA, r.LinkB)
	c.Delivered += uint64(r.Failures.Delivered)
}

func (c *counts) addMesh(r core.MeshResult) {
	c.addRouters(r.Routers.FlitsIn, r.Routers.Forwarded, r.Routers.CorrectedFlits,
		r.Routers.DroppedUncorrectable, r.Routers.QueuePeak)
	c.ExpressTraversals += r.ExpressTraversals
	c.ExpressFallbacks += r.ExpressFallbacks
	c.addLinks(r.TxStats...)
	c.addLinks(r.RxStats...)
	for _, fc := range r.PerFlow {
		c.Delivered += uint64(fc.Delivered)
	}
}

func (c *counts) addRouters(in, fwd, corrected, dropped, peak uint64) {
	c.FlitsIn += in
	c.Forwarded += fwd
	c.CorrectedFlits += corrected
	c.DroppedUncorrectable += dropped
	c.QueuePeak = max(c.QueuePeak, peak)
}

func (c *counts) addLinks(stats ...link.Stats) {
	for _, st := range stats {
		c.Retransmissions += st.Retransmissions
		c.TimeoutRetries += st.TimeoutRetries
		c.FecCorrectedFlits += st.FecCorrectedFlits
	}
}

// add folds another run's counts into c.
func (c *counts) add(o counts) {
	c.addRouters(o.FlitsIn, o.Forwarded, o.CorrectedFlits, o.DroppedUncorrectable, o.QueuePeak)
	c.ExpressTraversals += o.ExpressTraversals
	c.ExpressFallbacks += o.ExpressFallbacks
	c.Retransmissions += o.Retransmissions
	c.TimeoutRetries += o.TimeoutRetries
	c.FecCorrectedFlits += o.FecCorrectedFlits
	c.Delivered += o.Delivered
}

// into adds the counts to a result's metrics.
func (c counts) into(m map[string]metric) {
	for name, v := range map[string]uint64{
		"switchfab.flits_in":              c.FlitsIn,
		"switchfab.forwarded":             c.Forwarded,
		"switchfab.express_traversals":    c.ExpressTraversals,
		"switchfab.express_fallbacks":     c.ExpressFallbacks,
		"switchfab.corrected_flits":       c.CorrectedFlits,
		"switchfab.dropped_uncorrectable": c.DroppedUncorrectable,
		"switchfab.queue_peak":            c.QueuePeak,
		"link.retransmissions":            c.Retransmissions,
		"link.timeout_retries":            c.TimeoutRetries,
		"link.fec_corrected_flits":        c.FecCorrectedFlits,
		"core.delivered_payloads":         c.Delivered,
	} {
		m[name] = metric{float64(v), "count"}
	}
	ratio := 0.0
	if c.Delivered > 0 {
		ratio = float64(c.FlitsIn) / float64(c.Delivered)
	}
	m["switchfab.traversals_per_delivered"] = metric{ratio, "ratio"}
}
