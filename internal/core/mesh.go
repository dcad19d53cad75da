package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// MeshFabric is the 2D-mesh NoC counterpart of Fabric: a W×H
// switchfab.Mesh with lazily attached endpoints, driven by one
// deterministic engine. It is the scenario-wiring layer the rxl.NoC
// facade, the mesh differential suite, and the multi-hop benchmarks sit
// on.
//
// The Config is interpreted mesh-wise: Protocol selects the router stack
// (RXL passes the end-to-end CRC through), BER/BurstProb/Seed drive the
// per-path shared error schedules, Serialization/Propagation override the
// per-hop wire timing, SwitchLatency the router traversal, and NoFastPath
// forces every endpoint onto the byte-level reference path. Levels and
// InternalFlipProb are ignored (inject router faults directly via
// Mesh.Routers).
type MeshFabric struct {
	Cfg  Config
	W, H int
	Eng  *sim.Engine
	// Mesh exposes routers and wires for fault injection and stats.
	Mesh *switchfab.Mesh

	nodes map[[2]int]*switchfab.MeshNode
}

// NewMeshFabric builds a w×h mesh fabric from the configuration.
func NewMeshFabric(cfg Config, w, h int) (*MeshFabric, error) {
	return newMeshFabric(cfg, w, h, false)
}

// newMeshFabric is the shared constructor behind NewMeshFabric and
// NewTopologyFabric; wrap selects torus wiring.
func newMeshFabric(cfg Config, w, h int, wrap bool) (*MeshFabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !switchfab.MeshSizeOK(w, h) {
		return nil, fmt.Errorf("core: mesh %dx%d out of range (need 1..256 nodes)", w, h)
	}
	mode := switchfab.ModeCXL
	if cfg.Protocol == link.ProtocolRXL {
		mode = switchfab.ModeRXL
	}
	mc := switchfab.DefaultMeshConfig(mode)
	mc.BER = cfg.BER
	mc.BurstProb = cfg.BurstProb
	mc.Seed = cfg.Seed
	mc.Wrap = wrap
	mc.NoExpress = cfg.NoExpress
	if cfg.Serialization > 0 {
		mc.Serialization = cfg.Serialization
	}
	if cfg.Propagation > 0 {
		mc.Propagation = cfg.Propagation
	}
	if cfg.SwitchLatency > 0 {
		mc.RouterLatency = cfg.SwitchLatency
	}
	eng := sim.NewEngine()
	return &MeshFabric{
		Cfg:   cfg,
		W:     w,
		H:     h,
		Eng:   eng,
		Mesh:  switchfab.NewMesh(eng, w, h, mc),
		nodes: make(map[[2]int]*switchfab.MeshNode),
	}, nil
}

// MustNewMeshFabric is NewMeshFabric panicking on error.
func MustNewMeshFabric(cfg Config, w, h int) *MeshFabric {
	m, err := NewMeshFabric(cfg, w, h)
	if err != nil {
		panic(err)
	}
	return m
}

// Node returns (creating on first use) the endpoint at mesh position
// (x,y), wired with the fabric's link configuration and NoFastPath
// setting.
func (m *MeshFabric) Node(x, y int) *switchfab.MeshNode {
	key := [2]int{x, y}
	if nd, ok := m.nodes[key]; ok {
		return nd
	}
	lcfg := link.DefaultConfig(m.Cfg.Protocol)
	if m.Cfg.LinkConfig != nil {
		lcfg = *m.Cfg.LinkConfig
		lcfg.Protocol = m.Cfg.Protocol
	}
	if m.Cfg.NoFastPath {
		lcfg.FastPath = false
	}
	nd := switchfab.NewMeshNode(m.Mesh, x, y, lcfg)
	m.nodes[key] = nd
	return nd
}

// Run drains the event queue.
func (m *MeshFabric) Run() { m.Eng.Run() }

// RunFor advances simulated time by d.
func (m *MeshFabric) RunFor(d sim.Time) { m.Eng.AdvanceTo(m.Eng.Now() + d) }

// MeshFlow is one unidirectional stream of a mesh workload.
type MeshFlow struct {
	SrcX, SrcY, DstX, DstY int
}

// Hops returns the number of wire crossings of the flow's XY route:
// the node-ingress wire plus the Manhattan distance between routers.
func (f MeshFlow) Hops() int {
	return 1 + absInt(f.DstX-f.SrcX) + absInt(f.DstY-f.SrcY)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MeshResult is the accounting of one mesh workload run: the Section 7.1
// failure taxonomy per flow, per-flow endpoint link statistics, the
// router totals, and the per-path channel accounting.
type MeshResult struct {
	Cfg     Config
	W, H    int
	Flows   []MeshFlow
	Offered int // payloads injected per flow (the maximum, when weighted)
	// PerFlowOffered is the per-flow payload count of weighted workloads
	// (trace-driven replay); nil when every flow offered the same count.
	PerFlowOffered []int

	PerFlow          []FailureCounts
	TxStats, RxStats []link.Stats
	Routers          switchfab.Stats
	Paths            []switchfab.PathStat
	// QueuePeaks is the per-node queue-depth high-water mark, indexed
	// [y][x]: the deepest serialization backlog any wire of that node's
	// router reached, in flits — the backpressure measurement of the
	// single-sink/incast scenarios. Routers.QueuePeak is its mesh-wide
	// max.
	QueuePeaks [][]uint64
	// ExpressTraversals counts traversals collapsed to a single delivery
	// event; ExpressFallbacks counts granted routable traversals whose
	// express claim was refused (fault-scripted wire, in-flight flit,
	// fault-configured router) and fell back to hop-by-hop forwarding.
	ExpressTraversals uint64
	ExpressFallbacks  uint64
	// HookDropped counts flits silently dropped by scripted fault hooks
	// (link-flap campaigns) across every wire.
	HookDropped uint64
	Elapsed     sim.Time
}

// Clean reports whether every flow delivered exactly-once, in-order, and
// intact.
func (r MeshResult) Clean() bool {
	for _, fc := range r.PerFlow {
		if !fc.Clean() {
			return false
		}
	}
	return true
}

// String summarizes the result on one line.
func (r MeshResult) String() string {
	var del, ooo, dup, corrupt, missing int
	for _, fc := range r.PerFlow {
		del += fc.Delivered
		ooo += fc.FailOrder
		dup += fc.Duplicates
		corrupt += fc.FailData
		missing += fc.Missing
	}
	return fmt.Sprintf(
		"%s mesh %dx%d BER=%g: flows=%d offered=%d delivered=%d dup=%d ooo=%d corrupt=%d missing=%d drops=%d t=%dns",
		r.Cfg.Protocol, r.W, r.H, r.Cfg.BER, len(r.Flows), r.Offered*len(r.Flows),
		del, dup, ooo, corrupt, missing, r.Routers.DroppedUncorrectable,
		r.Elapsed/sim.Nanosecond)
}

// RunWorkload drives n payloads through each flow simultaneously
// (submissions interleaved round-robin across flows) and returns the full
// accounting. Equal seeds and configurations give bit-identical results;
// the mesh differential suite relies on that to compare the fast path
// against the byte-level reference.
func (m *MeshFabric) RunWorkload(flows []MeshFlow, n int) MeshResult {
	if n <= 0 {
		panic("core: mesh workload needs n > 0")
	}
	res := m.runWorkload(flows, nil, n)
	res.PerFlowOffered = nil // uniform runs keep the legacy result shape
	return res
}

// RunWeighted is RunWorkload with a per-flow payload count — the
// trace-driven replay shape, where recorded flows carry different
// volumes. Submissions stay round-robin across flows still offering, so
// the congestion interleaving matches RunWorkload's for uniform counts.
func (m *MeshFabric) RunWeighted(flows []MeshFlow, counts []int) MeshResult {
	if len(counts) != len(flows) {
		panic("core: mesh workload counts must match flows")
	}
	maxN := 0
	for _, c := range counts {
		if c <= 0 {
			panic("core: mesh workload needs every count > 0")
		}
		if c > maxN {
			maxN = c
		}
	}
	return m.runWorkload(flows, counts, maxN)
}

func (m *MeshFabric) runWorkload(flows []MeshFlow, counts []int, n int) MeshResult {
	if len(flows) == 0 {
		panic("core: mesh workload needs at least one flow")
	}
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
		src := m.Node(fl.SrcX, fl.SrcY)
		dst := m.Node(fl.DstX, fl.DstY)
		txs[i] = src.PeerTo(dst.ID)
		rxs[i] = dst.PeerTo(src.ID)
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
