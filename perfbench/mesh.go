package main

// mesh-clean drives RXL at BER 1e-9 through an 8×8 mesh and an 8×8
// torus under uniform 32-flow traffic, and a 4×4 mesh under transpose,
// all below saturation. Almost every traversal goes express and the
// coding layers stay idle, so the simulator, switch fabric, link and flit
// layers carry the cost: the bypass workload for any rs/gf256/crc change.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// meshN is the payload count per flow, large enough that a fabric run
// dominates its set-up.
const meshN = 2000

// meshInterval paces every flow at 1/16 of line rate, so a wire shared
// by fewer than 16 flows is never offered more than it can serialize and
// the fabric stays below saturation for every seed. Offering every
// payload at once, as MeshFabric.RunWorkload does, overloads any wire
// two flows share: on some seeds the queues outgrow the link's 2 µs
// retry timer, and go-back-N replays multiply the work several times.
const meshInterval = 16 * sim.FlitTime

var meshCases = []struct {
	topo core.Topology
	spec workload.Spec
}{
	{core.Topology{Kind: core.TopoMesh, W: 8, H: 8}, workload.Spec{Kind: workload.KindUniform, Flows: 32}},
	{core.Topology{Kind: core.TopoTorus, W: 8, H: 8}, workload.Spec{Kind: workload.KindUniform, Flows: 32}},
	{core.Topology{Kind: core.TopoMesh, W: 4, H: 4}, workload.Spec{Kind: workload.KindTranspose}},
}

func runMeshClean(seed uint64, window time.Duration, tr *tracer, rep *report) error {
	var nsPerTraversal []float64
	err := measure(window, rep, func(iter int) error {
		var c counts
		var setup, wall float64
		root := tr.start("mesh-clean", 0, iter)
		for i, mc := range meshCases {
			cfg := core.Config{Protocol: link.ProtocolRXL, BER: 1e-9, BurstProb: 0.4, Seed: runner.ShardSeed(seed, i)}
			var (
				flows []core.MeshFlow
				fab   *core.MeshFabric
				err   error
			)
			setup += timeIt(func() {
				tr.do("workload.generate", root, iter, func() {
					flows, _, err = core.ScenarioCell{Cfg: cfg, Topo: mc.topo, Workload: mc.spec}.Flows()
				})
				if err != nil {
					return
				}
				tr.do("core.fabric_build", root, iter, func() {
					fab, err = core.NewTopologyFabric(cfg, mc.topo)
				})
			})
			if err != nil {
				return fmt.Errorf("%s %s: %w", mc.topo.Name(), mc.spec.Name(), err)
			}
			var res core.MeshResult
			run := timeIt(func() { tr.do("core.run", root, iter, func() { res = runPaced(fab, flows, meshN) }) })
			wall += run
			rep.ops = append(rep.ops, run)
			rep.check(checkMesh(mc.topo.Name()+" "+mc.spec.Name(), res))
			c.addMesh(res)
		}
		tr.end(root)
		rep.setup = append(rep.setup, setup)
		rep.wall = append(rep.wall, wall)
		rep.payloads = append(rep.payloads, float64(c.Delivered)/wall)
		nsPerTraversal = append(nsPerTraversal, 1e9*wall/float64(c.FlitsIn))
		rep.repeatCounts(iter, c)
		return nil
	})
	if tr != nil {
		rep.perLayer["sim.ns_per_traversal"] = median(nsPerTraversal)
	}
	return err
}

// runPaced drives n payloads through each flow, one per flow every
// meshInterval (round-robin across flows, like RunWorkload), and returns
// the same accounting RunWorkload does.
func runPaced(fab *core.MeshFabric, flows []core.MeshFlow, n int) core.MeshResult {
	txs := make([]*link.Peer, len(flows))
	rxs := make([]*link.Peer, len(flows))
	cols := make([]*core.Collector, len(flows))
	for i, fl := range flows {
		src, dst := fab.Node(fl.SrcX, fl.SrcY), fab.Node(fl.DstX, fl.DstY)
		txs[i], rxs[i] = src.PeerTo(dst.ID), dst.PeerTo(src.ID)
		cols[i] = core.NewCollector(n)
		rxs[i].Deliver = cols[i].Deliver
	}
	sent := 0
	var inject func()
	inject = func() {
		for _, tx := range txs {
			tx.Submit(core.SealedPayload(uint64(sent)))
		}
		if sent++; sent < n {
			fab.Eng.Schedule(meshInterval, inject)
		}
	}
	fab.Eng.Schedule(0, inject)
	fab.Run()

	res := core.MeshResult{
		Cfg: fab.Cfg, W: fab.W, H: fab.H,
		Flows:             flows,
		Offered:           n,
		Routers:           fab.Mesh.TotalStats(),
		QueuePeaks:        fab.Mesh.NodeQueuePeaks(),
		ExpressTraversals: fab.Mesh.ExpressTraversals,
		ExpressFallbacks:  fab.Mesh.ExpressFallbacks,
		HookDropped:       fab.Mesh.HookDrops(),
		Elapsed:           fab.Eng.Now(),
	}
	for i := range flows {
		res.PerFlow = append(res.PerFlow, cols[i].Finish())
		res.TxStats = append(res.TxStats, txs[i].Stats)
		res.RxStats = append(res.RxStats, rxs[i].Stats)
	}
	return res
}

// checkMesh requires every flow to deliver all it offered, exactly once,
// in order and intact.
func checkMesh(name string, r core.MeshResult) error {
	if !r.Clean() {
		return fmt.Errorf("%s: delivery not clean: %s", name, r)
	}
	for i, fc := range r.PerFlow {
		if fc.Delivered != r.Offered {
			return fmt.Errorf("%s: flow %d delivered %d of %d", name, i, fc.Delivered, r.Offered)
		}
	}
	return nil
}
