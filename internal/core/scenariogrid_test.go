package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/workload"
)

// scenarioReplayTrace is a small incast-ish recorded flow list used by
// the replay cells: node IDs fit any topology of at least 2x2.
const scenarioReplayTrace = "1 0 120\n2 0 80\n3 0 40\n0 3 20\n"

// TestScenarioDifferentialMatrix is the acceptance bar of the scenario
// layer: for every compatible (topology × workload × fault-campaign)
// combination — torus at two sizes among the topologies — the fast path
// and the byte-level reference must produce bit-identical results.
// Protocols alternate across combinations so both router stacks stay
// covered without doubling the matrix.
func TestScenarioDifferentialMatrix(t *testing.T) {
	topologies := []Topology{
		{Kind: TopoMesh, W: 3, H: 3},
		{Kind: TopoTorus, W: 3, H: 3},
		{Kind: TopoTorus, W: 4, H: 4},
	}
	workloads := []workload.Spec{
		{Kind: workload.KindUniform, Flows: 4},
		{Kind: workload.KindZipf, Flows: 6, Skew: 1.5},
		{Kind: workload.KindTranspose},
		{Kind: workload.KindBitReverse},
		{Kind: workload.KindSingleSink, SinkX: 1, SinkY: 1},
		{Kind: workload.KindReplay, Trace: scenarioReplayTrace},
	}
	faults := []FaultScript{
		{Kind: FaultNone},
		{Kind: FaultDegrade, StartNS: 150, Factor: 10},
		{Kind: FaultStorm, StartNS: 150, DurationNS: 250, Factor: 20},
		{Kind: FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
	}

	const n = 100
	idx := 0
	covered := 0
	var expressRuns, expressFallbacks, flapFallbacks uint64
	for _, topo := range topologies {
		for _, wl := range workloads {
			for _, fault := range faults {
				proto := link.ProtocolRXL
				if idx%2 == 1 {
					proto = link.ProtocolCXLNoPiggyback
				}
				idx++
				cell := ScenarioCell{
					Cfg:      Config{Protocol: proto, BER: 1e-5, BurstProb: 0.4, Seed: 77},
					Topo:     topo,
					Workload: wl,
					Fault:    fault,
				}
				if !cell.Compatible() { // bit-reverse on 9-node fabrics
					continue
				}
				covered++
				t.Run(cell.Name(), func(t *testing.T) {
					fast := assertCellFastSlowIdentical(t, cell, n)
					expressRuns += fast.Result.ExpressTraversals
					expressFallbacks += fast.Result.ExpressFallbacks
					if fault.Kind == FaultFlap {
						flapFallbacks += fast.Result.ExpressFallbacks
					}
				})
			}
		}
	}
	// 3 topologies × 6 workloads × 4 faults, minus bitrev on the two
	// 9-node fabrics (2×4 combinations).
	if want := 3*6*4 - 8; covered != want {
		t.Errorf("matrix covered %d combinations, want %d", covered, want)
	}
	// The matrix must actually exercise both halves of the express model:
	// single-event traversals and hop-by-hop fallbacks (including
	// flap-forced ones — every traversal crossing a flapped wire refuses
	// its claim), or the bit-identity above is vacuous for express.
	if expressRuns == 0 || expressFallbacks == 0 || flapFallbacks == 0 {
		t.Errorf("matrix express coverage hollow: %d express, %d fallbacks (%d under flap)",
			expressRuns, expressFallbacks, flapFallbacks)
	}
}

// TestScenarioFaultsBite pins that the fault campaigns actually perturb
// the run — a campaign the differential can't distinguish from "none"
// would vacuously pass the matrix.
func TestScenarioFaultsBite(t *testing.T) {
	base := ScenarioCell{
		Cfg:      Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: 9},
		Topo:     Topology{Kind: TopoTorus, W: 3, H: 3},
		Workload: workload.Spec{Kind: workload.KindSingleSink, SinkX: 0, SinkY: 0},
	}
	ref, err := base.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Clean() {
		t.Fatalf("baseline cell not clean: %+v", ref.Result.PerFlow)
	}

	storm := base
	storm.Fault = FaultScript{Kind: FaultStorm, StartNS: 100, DurationNS: 2000, Factor: 1000}
	stormRes, err := storm.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if !stormRes.Clean() {
		t.Fatalf("RXL did not recover from storm: %+v", stormRes.Result.PerFlow)
	}
	refErrs := uint64(0)
	for _, p := range ref.Result.Paths {
		refErrs += p.ErrorEvents
	}
	stormErrs := uint64(0)
	for _, p := range stormRes.Result.Paths {
		stormErrs += p.ErrorEvents
	}
	if stormErrs <= refErrs {
		t.Errorf("storm produced %d error events, baseline %d — fault did not bite", stormErrs, refErrs)
	}

	// Flap campaigns drop flits on a wire; across a handful of seeds at
	// least one must pick a wire that carries traffic.
	bit := false
	for seed := uint64(1); seed <= 5 && !bit; seed++ {
		flap := base
		flap.Cfg.Seed = seed
		flap.Fault = FaultScript{Kind: FaultFlap, StartNS: 100, DurationNS: 150, Flaps: 4, PeriodNS: 400}
		res, err := flap.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("link retry did not recover from flap (seed %d): %+v", seed, res.Result.PerFlow)
		}
		bit = res.Result.HookDropped > 0
	}
	if !bit {
		t.Error("no flap campaign dropped any flit across 5 seeds")
	}
}

// TestScenarioGridWorkerInvariance: RunScenarioGrid returns bit-identical
// results at any worker count — each cell's fabric is seeded
// independently of scheduling, like RunGrid's contract.
func TestScenarioGridWorkerInvariance(t *testing.T) {
	g := ScenarioGrid{
		Base:      Config{Protocol: link.ProtocolRXL, BurstProb: 0.4, Seed: 21},
		Protocols: []link.Protocol{link.ProtocolCXLNoPiggyback, link.ProtocolRXL},
		Topologies: []Topology{
			{Kind: TopoMesh, W: 3, H: 3},
			{Kind: TopoTorus, W: 3, H: 3},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindZipf, Flows: 4},
			{Kind: workload.KindTranspose},
		},
		Faults: []FaultScript{{Kind: FaultNone}, {Kind: FaultStorm, Factor: 20}},
		BERs:   []float64{1e-5},
		N:      60,
	}
	run := func(workers int) []ScenarioResult {
		res, err := RunScenarioGrid(context.Background(), runner.Pool{Workers: workers, BaseSeed: 5}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatal("scenario grid results differ across worker counts")
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(one), len(cells))
	}
	rows := ScenarioResultRows(one)
	if len(rows) != len(one) || len(rows[0]) != len(ScenarioCSVHeader()) {
		t.Fatalf("CSV shape %dx%d does not match header %d", len(rows), len(rows[0]), len(ScenarioCSVHeader()))
	}
}

// TestScenarioGridEnumeration pins normalization and deterministic cell
// ordering: axis defaults, incompatible-cell skipping, validation errors.
func TestScenarioGridEnumeration(t *testing.T) {
	g := ScenarioGrid{
		Base: Config{Protocol: link.ProtocolRXL, Seed: 3},
		Topologies: []Topology{
			{W: 4, H: 1},          // non-square: transpose drops out
			{Kind: TopoTorus, W: 2, H: 2},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindUniform, Flows: 2},
			{Kind: workload.KindTranspose},
		},
		N: 10,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 1 protocol × (2 topologies × 2 workloads − 1 incompatible) × 1 fault.
	if len(cells) != 3 {
		t.Fatalf("enumerated %d cells, want 3", len(cells))
	}
	for _, c := range cells {
		if c.Fault.Kind != FaultNone {
			t.Errorf("default fault = %q, want none", c.Fault.Kind)
		}
		if c.Topo.Kind == "" {
			t.Error("topology kind not normalized")
		}
	}
	// Enumeration is deterministic.
	again, _ := g.Cells()
	if !reflect.DeepEqual(cells, again) {
		t.Error("cell enumeration not deterministic")
	}

	bad := []ScenarioGrid{
		{Topologies: []Topology{{W: 2, H: 2}}, Workloads: []workload.Spec{{Kind: workload.KindUniform}}},                         // N missing
		{N: 5, Workloads: []workload.Spec{{Kind: workload.KindUniform}}},                                                        // no topology
		{N: 5, Topologies: []Topology{{W: 2, H: 2}}},                                                                            // no workload
		{N: 5, Topologies: []Topology{{Kind: "ring", W: 2, H: 2}}, Workloads: []workload.Spec{{Kind: workload.KindUniform}}},    // bad topo
		{N: 5, Topologies: []Topology{{W: 1 << 32, H: 1 << 32}}, Workloads: []workload.Spec{{Kind: workload.KindUniform}}},      // size wraps to 0
		{N: 5, Topologies: []Topology{{W: 2, H: 2}}, Workloads: []workload.Spec{{Kind: "tornado"}}},                             // bad workload
		{N: 5, Topologies: []Topology{{W: 2, H: 2}}, Workloads: []workload.Spec{{Kind: workload.KindUniform}}, Faults: []FaultScript{{Kind: "quake"}}}, // bad fault
	}
	for i, b := range bad {
		if _, err := b.Normalized(); err == nil {
			t.Errorf("bad grid %d normalized without error", i)
		}
	}

	// A grid where every (topology, workload) pairing is incompatible
	// errors instead of returning zero cells.
	empty := ScenarioGrid{
		N:          5,
		Topologies: []Topology{{W: 4, H: 1}},
		Workloads:  []workload.Spec{{Kind: workload.KindTranspose}},
	}
	if _, err := empty.Cells(); err == nil || !strings.Contains(err.Error(), "no compatible") {
		t.Errorf("all-incompatible grid err = %v", err)
	}
}

// TestScenarioReplayWeighting: replay cells offer the trace's recorded
// per-flow volumes (capped at the grid's N), surfaced via
// PerFlowOffered, and deliver them all on a clean fabric.
func TestScenarioReplayWeighting(t *testing.T) {
	cell := ScenarioCell{
		Cfg:      Config{Protocol: link.ProtocolRXL, Seed: 2},
		Topo:     Topology{Kind: TopoTorus, W: 2, H: 2},
		Workload: workload.Spec{Kind: workload.KindReplay, Trace: scenarioReplayTrace},
	}
	res, err := cell.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("replay cell not clean: %+v", res.Result.PerFlow)
	}
	want := []int{100, 80, 40, 20} // first record capped 120→100
	if !reflect.DeepEqual(res.Result.PerFlowOffered, want) {
		t.Fatalf("PerFlowOffered = %v, want %v", res.Result.PerFlowOffered, want)
	}
	for i, fc := range res.Result.PerFlow {
		if fc.Delivered != want[i] {
			t.Errorf("flow %d delivered %d of %d", i, fc.Delivered, want[i])
		}
	}
}
