package main

// paper-sweep regenerates the paper's evaluation with the library calls
// `sweep -rare -scenarios` makes, at its default sizes. The report is
// rendered exactly as cmd/sweep renders it, so the non-scenario part must
// equal the committed EXPERIMENTS.md byte for byte and the scenario
// section must hash to scenarioDigest. The inputs are the paper's fixed
// configurations: --seed does not change them, because any other input
// would have no committed reference to check against.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hwcost"
	"repro/internal/link"
	"repro/internal/perf"
	"repro/internal/reliability"
	"repro/internal/runner"
	"repro/internal/workload"
)

// scenarioDigest is the SHA-256 of the scenario-grid section that
// `sweep -rare -scenarios` prints (heading through last cell line).
const scenarioDigest = "9d8a3a9a1756cde82a8f92e1db6e6aa121c707c74906d3d680f5681322e2a6d6"

// sweepN and rareRelErr are cmd/sweep's defaults: payloads per live
// simulation and the rare-event estimates' target relative error.
const (
	sweepN     = 20000
	rareRelErr = 0.1
)

// sweepInputs are the evaluation's inputs, built once per iteration.
type sweepInputs struct {
	pool  runner.Pool
	rel   reliability.Params
	pf    perf.Params
	grid  core.Grid
	scen  core.ScenarioGrid
	cells []core.ScenarioCell
}

func buildSweepInputs() (sweepInputs, error) {
	in := sweepInputs{
		pool: runner.Pool{Workers: workers, BaseSeed: 1},
		rel:  reliability.DefaultParams(),
		pf:   perf.DefaultParams(),
		grid: core.Grid{
			Base:      core.Config{BurstProb: 0.4},
			Protocols: core.Protocols,
			Levels:    []int{0, 1, 2},
			BERs:      []float64{1e-6, 1e-5},
			Seeds:     []uint64{7},
			N:         sweepN / 4,
		},
		scen: core.ScenarioGrid{
			Base:      core.Config{BER: 1e-5, BurstProb: 0.4, Seed: 7},
			Protocols: core.Protocols,
			Topologies: []core.Topology{
				{Kind: core.TopoMesh, W: 4, H: 4},
				{Kind: core.TopoTorus, W: 4, H: 4},
			},
			Workloads: []workload.Spec{
				{Kind: workload.KindUniform, Flows: 6},
				{Kind: workload.KindZipf, Flows: 6, Skew: 1.5},
				{Kind: workload.KindTranspose},
				{Kind: workload.KindSingleSink, SinkX: 1, SinkY: 1, Flows: 5},
			},
			Faults: []core.FaultScript{
				{Kind: core.FaultNone},
				{Kind: core.FaultStorm, StartNS: 150, DurationNS: 250, Factor: 20},
				{Kind: core.FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
			},
			N: sweepN / 100,
		},
	}
	var err error
	in.cells, err = in.scen.Cells()
	return in, err
}

// sweepSetups is how many times set-up is timed.
const sweepSetups = 15

// comparisonCfg is the fabric of the protocol comparison stage.
var comparisonCfg = core.Config{Levels: 1, BER: 1e-5, BurstProb: 0.4, Seed: 7}

// buildSweepFabrics is the evaluation's set-up: it builds, without
// running, every fabric the live simulations use — the comparison's three
// variants, the grid's cells and the scenario grid's cells. The stages
// build their own fabrics again when they run.
func buildSweepFabrics() error {
	in, err := buildSweepInputs()
	if err != nil {
		return err
	}
	cfgs := in.grid.Configs()
	for _, p := range core.Protocols {
		cfg := comparisonCfg
		cfg.Protocol = p
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		if _, err := core.NewFabric(cfg); err != nil {
			return err
		}
	}
	for _, c := range in.cells {
		if _, err := core.NewTopologyFabric(c.Cfg, c.Topo); err != nil {
			return err
		}
	}
	return nil
}

func runPaperSweep(_ uint64, window time.Duration, tr *tracer, rep *report) error {
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return fmt.Errorf("paper-sweep needs the committed EXPERIMENTS.md in the working directory: %w", err)
	}
	for range sweepSetups {
		rep.setup = append(rep.setup, timeIt(func() { err = buildSweepFabrics() }))
		if err != nil {
			return err
		}
	}

	return measure(window, rep, func(iter int) error {
		in, err := buildSweepInputs()
		if err != nil {
			return err
		}
		var out *sweepOutput
		root := tr.start("paper-sweep", 0, iter)
		wall := timeIt(func() { out, err = paperSweep(context.Background(), in, tr, root, iter) })
		tr.end(root)
		if err != nil {
			return err
		}
		rep.wall = append(rep.wall, wall)
		rep.payloads = append(rep.payloads, float64(out.counts.Delivered)/wall)
		rep.ops = append(rep.ops, out.stages...)

		rep.check(diffReport(out.report.Bytes(), want))
		var digestErr error
		sum := sha256.Sum256(out.scenarios.Bytes())
		if got := hex.EncodeToString(sum[:]); got != scenarioDigest {
			digestErr = fmt.Errorf("scenario section digest %s, want %s", got, scenarioDigest)
		}
		rep.check(digestErr)
		rep.repeatCounts(iter, out.counts)
		return nil
	})
}

// diffReport names the first line where the regenerated report departs
// from the committed one.
func diffReport(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Errorf("report line %d: got %q, EXPERIMENTS.md has %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("report has %d lines, EXPERIMENTS.md has %d", len(g), len(w))
}

// sweepOutput is one evaluation's report, split where cmd/sweep puts the
// optional scenario section, with its counts and per-stage host seconds.
type sweepOutput struct {
	report, scenarios bytes.Buffer
	counts            counts
	stages            []float64
}

// paperSweep runs every stage of the evaluation, each stage one span.
func paperSweep(ctx context.Context, in sweepInputs, tr *tracer, root, op int) (*sweepOutput, error) {
	out := &sweepOutput{}
	stage := func(name string, fn func() error) (err error) {
		id := tr.start(name, root, op)
		out.stages = append(out.stages, timeIt(func() { err = fn() }))
		tr.end(id)
		return err
	}
	w, scen, c := &out.report, &out.scenarios, &out.counts
	rel, pf := in.rel, in.pf

	err := stage("reliability.analytic", func() error {
		header(w, "Section 7.1 — reliability (Eq. 1-10)")
		fmt.Fprintf(w, "Eq. 1  FER                 %.3g   (paper: 2.0e-3)\n", rel.FER())
		fmt.Fprintf(w, "Eq. 3  p_correct           %.4f   (paper: >0.985)\n", rel.PCorrect())
		fmt.Fprintf(w, "Eq. 4  FER_UD direct       %.3g   (paper: 1.6e-24)\n", rel.FERUndetectedDirect())
		fmt.Fprintf(w, "Eq. 5  FIT direct          %.3g   (paper: 2.9e-3)\n", rel.FITDirect())
		fmt.Fprintf(w, "Eq. 7  FER_order 1-switch  %.3g   (paper: 3.0e-6)\n", rel.FEROrder(1))
		fmt.Fprintf(w, "Eq. 8  FIT CXL 1-switch    %.3g   (paper: 5.4e15)\n", rel.FITCXL(1))
		fmt.Fprintf(w, "Eq. 10 FIT RXL 1-switch    %.3g   (paper: 2.9e-3)\n", rel.FITRXL(1))
		fmt.Fprintf(w, "       improvement         %.3g   (paper: >1e18)\n", rel.Improvement(1))

		header(w, "Fig. 8 — FIT vs switching levels")
		fmt.Fprintln(w, "levels       FIT_CXL       FIT_RXL")
		for _, pt := range rel.Fig8(8) {
			fmt.Fprintf(w, "%6d  %12.3g  %12.3g\n", pt.Levels, pt.FITCXL, pt.FITRXL)
		}

		header(w, "Section 7.2 — bandwidth loss (Eq. 11-14)")
		fmt.Fprintf(w, "%-30s %9s %8s\n", "scheme", "BW loss", "ordered")
		for _, r := range pf.Table() {
			fmt.Fprintf(w, "%-30s %8.4f%% %8v\n", r.Scheme, 100*r.BWLoss, r.Ordered)
		}

		header(w, "Section 7.3 — ISN hardware cost")
		fmt.Fprintln(w, hwcost.DefaultReport())
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("core.figures", func() error {
		header(w, "Fig. 4 — link-layer drop scenario (deterministic)")
		for _, p := range core.Protocols {
			rep := core.RunFig4(p)
			fmt.Fprintf(w, "%-9s misordered=%-5v unverified=%d isn_detects=%d drops=%d tags=%v\n",
				p, rep.Misordered, rep.UnverifiedDelivered, rep.CrcErrors, rep.SwitchDrops, rep.Tags)
		}
		header(w, "Fig. 5a — duplicate request execution (deterministic)")
		for _, p := range []link.Protocol{link.ProtocolCXL, link.ProtocolRXL} {
			rep := core.RunFig5a(p)
			fmt.Fprintf(w, "%-9s dup_exec=%d dup_data=%d completed=%d/%d isn_detects=%d\n",
				p, rep.DuplicateExecutions, rep.DuplicateData, rep.Completed, rep.Issued, rep.LinkCrcErrors)
		}
		header(w, "Fig. 5b — out-of-order data within a CQID (deterministic)")
		for _, p := range []link.Protocol{link.ProtocolCXL, link.ProtocolRXL} {
			rep := core.RunFig5b(p)
			fmt.Fprintf(w, "%-9s out_of_order=%d completed=%d/%d isn_detects=%d\n",
				p, rep.OutOfOrderData, rep.Completed, rep.Issued, rep.LinkCrcErrors)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("core.comparison", func() error {
		header(w, "Live simulation — protocol comparison under BER")
		fmt.Fprintf(w, "(n=%d payloads, 1 switching level, accelerated BER 1e-5)\n", sweepN)
		results, err := core.RunComparisonPool(ctx, in.pool, comparisonCfg, sweepN)
		if err != nil {
			return err
		}
		for _, p := range core.Protocols {
			fmt.Fprintln(w, results[p])
			c.addResult(results[p])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("core.grid", func() error {
		header(w, "Scale-out grid — protocol × levels × BER (parallel runner)")
		fmt.Fprintf(w, "(%d cells × %d payloads, sharded across the worker pool)\n", in.grid.Size(), in.grid.N)
		res, err := core.RunGrid(ctx, in.pool, in.grid)
		if err != nil {
			return err
		}
		for _, r := range res {
			fmt.Fprintln(w, r)
			c.addResult(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("reliability.mc", func() error {
		header(w, "Monte-Carlo cross-checks (sharded runner)")
		s, err := reliability.MeasureFERSharded(ctx, in.pool, 5e-4, 20000, reliability.DefaultShards)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Eq. 1 at BER=5e-4: measured FER %.4f vs analytic %.4f (%d flits, %d shards)\n",
			s.FER, s.Analytic, s.Flits, reliability.DefaultShards)
		for _, b := range []int{3, 4, 5, 6} {
			o, err := reliability.MeasureFECBurstSharded(ctx, runner.Pool{Workers: workers, BaseSeed: uint64(b) * 977}, b, 20000, reliability.DefaultShards)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "FEC %dB bursts: corrected=%d detected=%d miscorrected=%d detection=%.4f\n",
				b, o.Corrected, o.Detected, o.Miscorrected, o.DetectionRate())
		}
		fmt.Fprintln(w, "(paper Section 2.5: detection 2/3 at 4B, 8/9 at 5B, 26/27 at >=6B)")
		est, err := reliability.StagedSharded(ctx, in.pool, 5e-4, 20000, 4, 20000, reliability.DefaultShards)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, est)
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("core.scenarios", func() error {
		header(scen, "Scenario grid — topology × workload × fault campaigns")
		res, err := core.RunScenarioGrid(ctx, in.pool, in.scen)
		if err != nil {
			return err
		}
		if len(res) != len(in.cells) {
			return fmt.Errorf("scenario grid returned %d cells, want %d", len(res), len(in.cells))
		}
		fmt.Fprintf(scen, "(%d cells × %d payloads/flow, sharded across the worker pool)\n", len(res), in.scen.N)
		fmt.Fprintf(scen, "%-9s %-9s %-22s %-22s %9s %9s %7s %6s %10s\n",
			"protocol", "topology", "workload", "fault", "offered", "delivered", "missing", "drops", "hook_drops")
		for _, r := range res {
			var del, missing, offered int
			for i, fc := range r.Result.PerFlow {
				del += fc.Delivered
				missing += fc.Missing
				if r.Result.PerFlowOffered != nil {
					offered += r.Result.PerFlowOffered[i]
				} else {
					offered += r.Result.Offered
				}
			}
			fmt.Fprintf(scen, "%-9s %-9s %-22s %-22s %9d %9d %7d %6d %10d\n",
				r.Result.Cfg.Protocol, r.Topology.Name(), r.Workload.Name(), r.Fault.Name(),
				offered, del, missing, r.Result.Routers.DroppedUncorrectable, r.Result.HookDropped)
			c.addMesh(r.Result)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	header(w, "Rare-event deep tails — importance sampling + multilevel splitting")
	fmt.Fprintf(w, "(tilted error-event schedule, rel-err target %.2f, %d shards; proposal auto)\n",
		rareRelErr, reliability.DefaultShards)
	err = stage("rarevent.is_sweep", func() error {
		pts, err := reliability.RareSweep(ctx, in.pool, []float64{1e-8, 1e-9, 1e-10}, 0, rareRelErr, 1<<24, reliability.DefaultShards)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "      BER       FER(IS)    ±rel     Eq.1   sigma    FER_UC(IS)    ±rel    FER_UD(IS)    ±rel")
		for _, pt := range pts {
			fmt.Fprintf(w, "%9.0e  %12.4g  %5.1f%%  %7.3g  %6.2f  %12.4g  %5.1f%%  %12.4g  %5.1f%%\n",
				pt.BER, pt.FER.Value, 100*pt.FER.RelErr, pt.FER.Analytic, pt.FER.Sigma(pt.FER.Analytic),
				pt.FERUC.Value, 100*pt.FERUC.RelErr, pt.Undetected.Value, 100*pt.Undetected.RelErr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("rarevent.split", func() error {
		split, err := reliability.MeasureSplitRare(ctx, in.pool, reliability.DefaultBER, 4, 50000, 16)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "splitting P(>=4 symbol errors/flit) at BER %g: %.4g ±%.1f%% vs exact binomial %.4g (%d final-level hits)\n",
			reliability.DefaultBER, split.Value, 100*split.RelErr, split.Analytic, split.Hits)
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = stage("rarevent.selfcheck", func() error {
		checks, err := reliability.RareSelfCheck(ctx, in.pool, []float64{1e-6, 1e-7}, 2_000_000, 32)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "self-validation (IS vs naive schedule MC at overlap BERs; acceptance: <= 3 sigma):")
		for _, ck := range checks {
			fmt.Fprintf(w, "  BER %g: IS %.4g ±%.1f%% vs naive %.4g (%d/%d events) — %.2f sigma\n",
				ck.BER, ck.IS.Value, 100*ck.IS.RelErr, ck.Naive.FER, ck.Naive.Erroneous, ck.Naive.Flits, ck.Sigma)
		}
		return nil
	})
	return out, err
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
