package rxl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro"
)

// The public-API tests exercise the library exactly as README consumers
// would, keeping the documented entry points honest.

func TestQuickstartFlow(t *testing.T) {
	fabric := rxl.MustNewFabric(rxl.Config{
		Protocol: rxl.RXL,
		Levels:   2,
		BER:      1e-6,
		Seed:     1,
	})
	exp := rxl.Experiment{Fabric: fabric, N: 2000}
	res := exp.Run()
	if !res.Failures.Clean() {
		t.Fatalf("quickstart not clean: %+v", res.Failures)
	}
	if res.Failures.Delivered != 2000 {
		t.Fatalf("delivered %d", res.Failures.Delivered)
	}
}

func TestNewFabricError(t *testing.T) {
	if _, err := rxl.NewFabric(rxl.Config{Levels: -1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestProtocolConstantsDistinct(t *testing.T) {
	if rxl.CXL == rxl.RXL || rxl.CXL == rxl.CXLNoPiggyback || rxl.RXL == rxl.CXLNoPiggyback {
		t.Fatal("protocol constants collide")
	}
}

func TestScenarioWrappers(t *testing.T) {
	if rep := rxl.RunFig4(rxl.CXL); !rep.Misordered {
		t.Error("Fig4 CXL must misorder")
	}
	if rep := rxl.RunFig4(rxl.RXL); rep.Misordered {
		t.Error("Fig4 RXL must stay ordered")
	}
	if rep := rxl.RunFig5a(rxl.CXL); rep.DuplicateExecutions == 0 {
		t.Error("Fig5a CXL must duplicate")
	}
	if rep := rxl.RunFig5b(rxl.CXL); rep.OutOfOrderData == 0 {
		t.Error("Fig5b CXL must misorder data")
	}
}

func TestAnalyticWrappers(t *testing.T) {
	r := rxl.DefaultReliability()
	if fit := r.FITCXL(1); fit < 1e15 {
		t.Errorf("FIT_CXL(1) = %g", fit)
	}
	pts := rxl.Fig8(4)
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	p := rxl.DefaultPerformance()
	if loss := p.BWLossSwitched(1); loss < 0.002 || loss > 0.004 {
		t.Errorf("BW loss = %g", loss)
	}
	hw := rxl.DefaultHardwareReport()
	if hw.ISNExtraXORs != 10 {
		t.Errorf("extra XORs = %d", hw.ISNExtraXORs)
	}
}

func TestRunComparisonWrapper(t *testing.T) {
	res := rxl.RunComparison(rxl.Config{Levels: 1}, 100)
	for _, proto := range []rxl.Protocol{rxl.CXL, rxl.CXLNoPiggyback, rxl.RXL} {
		if res[proto].Failures.Delivered == 0 {
			t.Errorf("%v delivered nothing", proto)
		}
	}
}

// TestSweepFacade drives the parallel sharded runner exactly as README
// documents: a protocol × levels grid on an explicit pool, deterministic
// across worker counts.
func TestSweepFacade(t *testing.T) {
	grid := rxl.SweepGrid{
		Base:      rxl.Config{BurstProb: 0.4},
		Protocols: []rxl.Protocol{rxl.CXL, rxl.RXL},
		Levels:    []int{0, 1},
		BERs:      []float64{1e-5},
		Seeds:     []uint64{7},
		N:         1000,
	}
	ctx := context.Background()
	one, err := rxl.Sweep(ctx, rxl.Runner{Workers: 1, BaseSeed: 2}, grid)
	if err != nil {
		t.Fatal(err)
	}
	many, err := rxl.Sweep(ctx, rxl.Runner{Workers: 8, BaseSeed: 2}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != grid.Size() || !reflect.DeepEqual(one, many) {
		t.Fatalf("sweep results differ across worker counts (%d cells)", len(one))
	}
	for _, r := range one {
		if r.Failures.Delivered != grid.N {
			t.Fatalf("%s delivered %d of %d", r.Cfg.Protocol, r.Failures.Delivered, grid.N)
		}
	}
}

func TestNoCQuickstart(t *testing.T) {
	noc, err := rxl.NewNoC(3, 3, rxl.Config{Protocol: rxl.RXL, BER: 1e-5, BurstProb: 0.4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := noc.Node(0, 0)
	dst := noc.Node(2, 2)
	tx := src.PeerTo(dst.ID)
	delivered := 0
	dst.PeerTo(src.ID).Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 16)
	const n = 500
	for i := 0; i < n; i++ {
		tx.Submit(payload)
	}
	noc.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if noc.Node(0, 0) != src {
		t.Fatal("Node not memoized")
	}
}

// TestNoCRunWorkloadRejectsRepeatedFlow: two flows on one (src,dst) pair
// would share one transmitter and one receiver, so the facade refuses
// them rather than report one flow all-missing and the other doubled.
func TestNoCRunWorkloadRejectsRepeatedFlow(t *testing.T) {
	noc, err := rxl.NewNoC(3, 3, rxl.Config{Protocol: rxl.RXL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := rxl.MeshFlow{SrcX: 0, SrcY: 0, DstX: 2, DstY: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("repeated (src,dst) flow accepted")
		}
	}()
	noc.RunWorkload([]rxl.MeshFlow{f, f}, 10)
}

func TestNoCRejectsInvalidConfig(t *testing.T) {
	if _, err := rxl.NewNoC(2, 2, rxl.Config{BER: -1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestNoCRejectsOversizedMesh: sides whose product wraps to a small int
// (2^32 × 2^32 is 0) or fits only by wrapping must be rejected before any
// router is allocated, not pass the node-count check and exhaust memory.
func TestNoCRejectsOversizedMesh(t *testing.T) {
	cfg := rxl.Config{Protocol: rxl.RXL}
	for _, d := range [][2]int{{1 << 32, 1 << 32}, {1 << 32, 1}, {257, 1}, {1, 300}, {17, 16}, {0, 4}, {-16, -16}} {
		if _, err := rxl.NewNoC(d[0], d[1], cfg); err == nil {
			t.Errorf("NewNoC(%d, %d) accepted", d[0], d[1])
		}
		if _, err := rxl.NewTorus(d[0], d[1], cfg); err == nil {
			t.Errorf("NewTorus(%d, %d) accepted", d[0], d[1])
		}
	}
	if _, err := rxl.NewNoC(16, 16, cfg); err != nil {
		t.Fatalf("largest mesh rejected: %v", err)
	}
}

func TestDefaultLinkConfigOverride(t *testing.T) {
	lc := rxl.DefaultLinkConfig(rxl.RXL)
	lc.CoalesceCount = 4
	fabric := rxl.MustNewFabric(rxl.Config{Protocol: rxl.RXL, LinkConfig: &lc})
	exp := rxl.Experiment{Fabric: fabric, N: 100}
	if res := exp.Run(); !res.Failures.Clean() {
		t.Fatalf("custom link config broke delivery: %+v", res.Failures)
	}
}

// runNoCOnce drives one corner-to-corner stream across a 3x3 mesh and
// returns the observable outcome: delivery count, both endpoints' link
// statistics, router totals, and the simulated end time.
func runNoCOnce(t *testing.T, cfg rxl.Config, n int) (int, [2]rxl.LinkStats, interface{}, rxl.Time) {
	t.Helper()
	noc, err := rxl.NewNoC(3, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := noc.Node(0, 0)
	dst := noc.Node(2, 2)
	tx := src.PeerTo(dst.ID)
	rx := dst.PeerTo(src.ID)
	delivered := 0
	rx.Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 16)
	for i := 0; i < n; i++ {
		tx.Submit(payload)
	}
	noc.Run()
	return delivered, [2]rxl.LinkStats{tx.Stats, rx.Stats}, noc.Mesh.TotalStats(), noc.Eng.Now()
}

// TestNoCFastPathDifferential pins Config.NoFastPath on the mesh NoC: the
// byte-level reference path and the error-event fast path must agree on
// delivery, link statistics, router totals, and timing for the same seed.
func TestNoCFastPathDifferential(t *testing.T) {
	for _, proto := range []rxl.Protocol{rxl.CXL, rxl.RXL} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := rxl.Config{Protocol: proto, BER: 1e-5, BurstProb: 0.4, Seed: 4}
			slow := cfg
			slow.NoFastPath = true
			fd, fs, fm, ft := runNoCOnce(t, cfg, 500)
			sd, ss, sm, st := runNoCOnce(t, slow, 500)
			if fd != sd || ft != st || !reflect.DeepEqual(fs, ss) || !reflect.DeepEqual(fm, sm) {
				t.Errorf("NoC fast/slow diverge:\nfast: d=%d t=%d %+v %+v\nslow: d=%d t=%d %+v %+v",
					fd, ft, fs, fm, sd, st, ss, sm)
			}
		})
	}
}

// TestServeFacade drives the serving daemon through the public facade:
// rxl.Serve + rxl.InProcessClient must answer a grid job with bytes
// identical to a direct rxl.Sweep of the same grid, and a repeat
// submission must be a cache hit carrying the same bytes.
func TestServeFacade(t *testing.T) {
	srv, err := rxl.Serve(rxl.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := rxl.InProcessClient(srv)
	ctx := context.Background()

	grid := rxl.SweepGrid{
		Base:      rxl.Config{BER: 1e-5, BurstProb: 0.4, Seed: 3},
		Protocols: []rxl.Protocol{rxl.CXL, rxl.RXL},
		Levels:    []int{1},
		N:         500,
	}
	spec := rxl.JobSpec{Kind: "grid", Seed: 11, Grid: &grid}

	served, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := rxl.Sweep(ctx, rxl.Runner{Workers: 2, BaseSeed: 11}, grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served result differs from direct rxl.Sweep:\n got %s\nwant %s", served, want)
	}

	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("repeat submission missed the cache")
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatal("cached bytes differ from direct run")
	}

	// Stream: the event log of a finished job replays to its result.
	sawResult := false
	if err := c.Stream(ctx, v.ID, func(e rxl.ServiceEvent) error {
		sawResult = sawResult || e.Type == "result"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawResult {
		t.Fatal("stream carried no result event")
	}
}
