package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/perf"
)

// submitLoopRun is Experiment.Run with the per-payload queueing that
// link.Peer.Offer replaced: every payload built by SealedPayload and
// queued by its own Submit before the run.
func submitLoopRun(f *Fabric, n int) Result {
	col := NewCollector(n)
	f.B().Deliver = col.Deliver
	for i := 0; i < n; i++ {
		f.A().Submit(SealedPayload(uint64(i)))
	}
	f.Run()
	res := Result{
		Cfg:      f.Cfg,
		Offered:  n,
		Failures: col.Finish(),
		LinkA:    f.A().Stats,
		LinkB:    f.B().Stats,
		Switches: f.Chain.TotalSwitchStats(),
		Goodput:  perf.MeasureGoodput(f.A().Stats),
		Elapsed:  f.Eng.Now(),
	}
	if len(f.Chain.Fwd) > 0 {
		res.ForwardUtilization = f.Chain.Fwd[0].Utilization()
	}
	return res
}

// submitLoopWorkload is MeshFabric.runWorkload with the round-robin
// per-payload Submit loop that link.Peer.Offer replaced. counts == nil
// is the uniform RunWorkload shape.
func submitLoopWorkload(m *MeshFabric, flows []MeshFlow, counts []int, n int) MeshResult {
	txs := make([]*link.Peer, len(flows))
	rxs := make([]*link.Peer, len(flows))
	cols := make([]*Collector, len(flows))
	count := func(i int) int {
		if counts == nil {
			return n
		}
		return counts[i]
	}
	for i, fl := range flows {
		src, dst := m.Node(fl.SrcX, fl.SrcY), m.Node(fl.DstX, fl.DstY)
		txs[i], rxs[i] = src.PeerTo(dst.ID), dst.PeerTo(src.ID)
		cols[i] = NewCollector(count(i))
		rxs[i].Deliver = cols[i].Deliver
	}
	for i := 0; i < n; i++ {
		for j, tx := range txs {
			if i < count(j) {
				tx.Submit(SealedPayload(uint64(i)))
			}
		}
	}
	m.Run()
	res := MeshResult{
		Cfg: m.Cfg, W: m.W, H: m.H,
		Flows:             append([]MeshFlow(nil), flows...),
		Offered:           n,
		Routers:           m.Mesh.TotalStats(),
		Paths:             m.Mesh.PathStats(),
		QueuePeaks:        m.Mesh.NodeQueuePeaks(),
		ExpressTraversals: m.Mesh.ExpressTraversals,
		ExpressFallbacks:  m.Mesh.ExpressFallbacks,
		HookDropped:       m.Mesh.HookDrops(),
		Elapsed:           m.Eng.Now(),
	}
	if counts != nil {
		res.PerFlowOffered = append([]int(nil), counts...)
	}
	for i := range flows {
		res.PerFlow = append(res.PerFlow, cols[i].Finish())
		res.TxStats = append(res.TxStats, txs[i].Stats)
		res.RxStats = append(res.RxStats, rxs[i].Stats)
	}
	return res
}

// TestOfferMatchesSubmitLoop is the bit-identity bar of lazy payload
// offers: Experiment.Run, RunWorkload and RunWeighted must return exactly
// the result of the per-payload Submit loop they replaced, for every
// protocol at error-free, paper and retry-heavy BERs, on chains of 0-2
// switch levels, a 4x4 mesh, a 4x4 torus and a 4x4 mesh with a flapping
// wire. The mesh flows share sources and sinks and include a reverse
// pair, so transmitters contend for node wires and carry ACKs for each
// other.
func TestOfferMatchesSubmitLoop(t *testing.T) {
	const n = 300
	flows := []MeshFlow{
		{SrcX: 0, SrcY: 0, DstX: 3, DstY: 3},
		{SrcX: 3, SrcY: 3, DstX: 0, DstY: 0},
		{SrcX: 0, SrcY: 0, DstX: 3, DstY: 0},
		{SrcX: 1, SrcY: 2, DstX: 3, DstY: 0},
	}
	counts := []int{n, n / 3, 1, n / 2}
	meshes := []struct {
		name string
		topo Topology
		flap bool
	}{
		{"mesh4x4", Topology{Kind: TopoMesh, W: 4, H: 4}, false},
		{"torus4x4", Topology{Kind: TopoTorus, W: 4, H: 4}, false},
		{"mesh4x4-flap", Topology{Kind: TopoMesh, W: 4, H: 4}, true},
	}
	// The matrix must reach the recovery paths, or identity is cheap.
	var retx, hookDrops uint64
	for _, proto := range Protocols {
		for _, ber := range []float64{0, 1e-6, 1e-5} {
			cfg := Config{Protocol: proto, BER: ber, BurstProb: 0.3, Seed: 77}
			for levels := 0; levels <= 2; levels++ {
				cfg := cfg
				cfg.Levels = levels
				t.Run(fmt.Sprintf("%s/L%d/BER%g", proto, levels, ber), func(t *testing.T) {
					want := submitLoopRun(MustNewFabric(cfg), n)
					got := (&Experiment{Fabric: MustNewFabric(cfg), N: n}).Run()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Offer run diverges from the Submit loop:\noffer:  %+v\nsubmit: %+v", got, want)
					}
					retx += got.LinkA.Retransmissions
				})
			}
			for _, mc := range meshes {
				mc := mc
				t.Run(fmt.Sprintf("%s/%s/BER%g", proto, mc.name, ber), func(t *testing.T) {
					build := func() *MeshFabric {
						m, err := NewTopologyFabric(cfg, mc.topo)
						if err != nil {
							t.Fatal(err)
						}
						if mc.flap {
							// Campaign index 5 puts the seed-derived flapping
							// wire on the flows' routes (checked below).
							if err := m.ApplyFault(FaultScript{Kind: FaultFlap}, 5); err != nil {
								t.Fatal(err)
							}
						}
						return m
					}
					want := submitLoopWorkload(build(), flows, nil, n)
					want.PerFlowOffered = nil
					if got := build().RunWorkload(flows, n); !reflect.DeepEqual(got, want) {
						t.Fatalf("RunWorkload diverges from the Submit loop:\noffer:  %+v\nsubmit: %+v", got, want)
					}
					want = submitLoopWorkload(build(), flows, counts, n)
					got := build().RunWeighted(flows, counts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("RunWeighted diverges from the Submit loop:\noffer:  %+v\nsubmit: %+v", got, want)
					}
					for _, st := range got.TxStats {
						retx += st.Retransmissions
					}
					hookDrops += got.HookDropped
				})
			}
		}
	}
	if retx == 0 || hookDrops == 0 {
		t.Fatalf("matrix never retransmitted (%d) or never hit the flap (%d hook drops)", retx, hookDrops)
	}
}

// TestMeshWorkloadRejectsRepeatedFlow: two flows on one (src,dst) pair
// would share a transmitter and a receiver, so one collector would see
// both streams and the other none. Every workload entry point refuses
// them instead of mis-reporting.
func TestMeshWorkloadRejectsRepeatedFlow(t *testing.T) {
	f := MeshFlow{SrcX: 0, SrcY: 0, DstX: 2, DstY: 2}
	other := MeshFlow{SrcX: 2, SrcY: 2, DstX: 0, DstY: 0} // the reverse pair is distinct
	runs := map[string]func(*MeshFabric){
		"RunWorkload": func(m *MeshFabric) { m.RunWorkload([]MeshFlow{f, other, f}, 10) },
		"RunWeighted": func(m *MeshFabric) { m.RunWeighted([]MeshFlow{f, other, f}, []int{10, 5, 10}) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			m, err := NewMeshFabric(Config{Protocol: link.ProtocolRXL, Seed: 1}, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("repeated (src,dst) flow accepted")
				}
			}()
			run(m)
		})
	}
	m, err := NewMeshFabric(Config{Protocol: link.ProtocolRXL, Seed: 1}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.RunWorkload([]MeshFlow{f, other}, 10); !res.Clean() {
		t.Fatalf("distinct pair and its reverse not clean: %v", res)
	}
}
