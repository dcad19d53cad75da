package switchfab

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/sim"
)

func TestMeshWiresCount(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 2, DefaultMeshConfig(ModeRXL))
	// Inter-router: horizontal 2*2 per row * 2 rows = 8; vertical 2*3 = 6.
	// Node ingress: 6. Total 20.
	if got := len(m.Wires()); got != 20 {
		t.Fatalf("wires = %d, want 20", got)
	}
}

func TestInterRouterWireDirections(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, DefaultMeshConfig(ModeRXL))
	// All four directions from the center must exist and be distinct.
	seen := map[*link.Wire]bool{}
	for _, to := range [][2]int{{2, 1}, {0, 1}, {1, 2}, {1, 0}} {
		w := m.InterRouterWire(1, 1, to[0], to[1])
		if w == nil || seen[w] {
			t.Fatalf("direction to %v missing or duplicated", to)
		}
		seen[w] = true
	}
}

func TestInterRouterWireNonAdjacentPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, DefaultMeshConfig(ModeRXL))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.InterRouterWire(0, 0, 2, 0)
}

// TestMeshSizeOK: each side is bounded before the node-count product, so
// sides whose product wraps (2^32 × 2^32 = 0) are rejected.
func TestMeshSizeOK(t *testing.T) {
	for _, d := range [][2]int{{1, 1}, {16, 16}, {256, 1}, {1, 256}, {8, 32}} {
		if !MeshSizeOK(d[0], d[1]) {
			t.Errorf("MeshSizeOK(%d, %d) = false", d[0], d[1])
		}
	}
	for _, d := range [][2]int{{0, 1}, {1, -1}, {257, 1}, {17, 16}, {1 << 32, 1 << 32}, {1 << 32, 1}, {-1 << 32, -1 << 32}} {
		if MeshSizeOK(d[0], d[1]) {
			t.Errorf("MeshSizeOK(%d, %d) = true", d[0], d[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh accepted a wrapping size")
		}
	}()
	NewMesh(sim.NewEngine(), 1<<32, 1<<32, DefaultMeshConfig(ModeRXL))
}

func TestAttachNodeNilPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.AttachNode(0, 0, nil)
}

// TestMeshRouteCorruptionDropped: a corrupted destination tag pointing
// outside the mesh is dropped with DroppedNoRoute — the misrouting hazard
// the paper cites for forwarding erroneous flits.
func TestMeshRouteCorruptionDropped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	in := m.AttachNode(0, 0, func(*flit.Flit) {})

	f := &flit.Flit{}
	f.Payload()[flit.RouteOffset] = 200 // outside the 4-node mesh
	f.SealRXL(0, flit.NewFEC())
	in.Send(f)
	eng.Run()

	if m.TotalStats().DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", m.TotalStats().DroppedNoRoute)
	}
}

// TestMeshUndeliverableLocal: a flit for a node that never attached is
// forwarded into the void without crashing.
func TestMeshUndeliverableLocal(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	in := m.AttachNode(0, 0, func(*flit.Flit) {})

	f := &flit.Flit{}
	f.Payload()[flit.RouteOffset] = m.NodeID(1, 1) // valid but unattached
	f.SealRXL(0, flit.NewFEC())
	in.Send(f)
	eng.Run() // must terminate without panic
}

// TestMeshInternalCorruptionRXLDetected: datapath corruption inside a
// mesh router is caught by the end-to-end ISN check, as in the scale-out
// case (Section 6.3 extended to NoC).
func TestMeshInternalCorruptionRXLDetected(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 1, DefaultMeshConfig(ModeRXL))
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 2, 0, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(b.ID)
	rx := b.PeerTo(a.ID)

	var payloads [][]byte
	rx.Deliver = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }

	fired := false
	m.Routers[1][0].InternalHook = func(f *flit.Flit) bool {
		if !fired && f.Header().Type == flit.TypeData {
			fired = true
			f.Payload()[5] ^= 0xAA
			return true
		}
		return false
	}

	tx.Submit(tagged(0))
	eng.Run()

	if !fired {
		t.Fatal("internal corruption never injected")
	}
	if len(payloads) != 1 {
		t.Fatalf("delivered %d payloads", len(payloads))
	}
	if payloads[0][5] != 0 {
		t.Fatal("RXL delivered corrupted data through the mesh")
	}
	if rx.Stats.CrcErrors == 0 {
		t.Fatal("ISN never flagged the router-internal corruption")
	}
}

func TestSeedInternalFaultsOnMeshRouter(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 1, DefaultMeshConfig(ModeRXL))
	m.Routers[0][0].SeedInternalFaults(0.5, nil) // nil rng: must stay inert
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 1, 0, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(b.ID)
	delivered := 0
	b.PeerTo(a.ID).Deliver = func([]byte) { delivered++ }
	tx.Submit(tagged(1))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	if m.Routers[0][0].Stats.InternalCorruptions != 0 {
		t.Fatal("nil-RNG fault injection corrupted a flit")
	}
}
