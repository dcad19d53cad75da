package rarevent

import (
	"bytes"
	"context"
	"math"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/rs"
)

// Importance-sampling estimators on the tilted error-event schedule.
//
// Each estimator walks phy.TiltedChannel's pre-drawn schedule exactly
// like reliability.MeasureFERSchedule walks the untilted one: clean flits
// are bulk-advanced in O(1) with zero RNG draws, and only flits the
// schedule actually strikes do any work. The per-flit importance weight
// W = exp(phy.UnitLogLR(p, q, 2048, flips)) multiplies the event
// indicator; clean flits have flips = 0 and can never hit an event, so
// their (constant) weight enters only the sum-to-one accounting, in
// closed form per clean span.

// walkTilted drives `trials` flits through a tilted schedule: whole
// clean spans are bulk-advanced in O(1) — their weights are a known
// constant and their event indicator is identically zero — and onStruck
// runs for every flit the schedule strikes (which therefore carries ≥1
// flip). It returns the number of clean flits, so the caller folds
// cleanFlits × exp(UnitLogLR(p, q, UnitBits, 0)) into its weight sum.
// This is the one copy of the clean-span idiom the IS estimators share.
//
// The walk polls ctx every cancelCheckMask+1 steps (a step is one bulk
// advance or one struck flit, so at proposal tilts where nearly every
// flit is struck the poll period is a few thousand decodes) and abandons
// the remaining budget on cancellation; the caller's partial sums are
// discarded by the ctx.Err() contract on Estimator.Run.
func walkTilted(ctx context.Context, ch *phy.Channel, trials int, onStruck func()) (cleanFlits int) {
	for i, steps := 0, 0; i < trials; steps++ {
		if steps&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		if clean := ch.NextEvent() / UnitBits; clean > 0 {
			if clean > trials-i {
				clean = trials - i
			}
			ch.Advance(clean * UnitBits)
			cleanFlits += clean
			i += clean
			continue
		}
		onStruck()
		i++
	}
	return cleanFlits
}

// unitWeights serves one estimator run's per-unit importance weight
// exp(UnitLogLR(p, q, bits, flips)). The weights of the first len(w) flip
// counts — every clean and nearly every struck unit at the proposal tilts
// in use — are computed once per run; larger counts take the direct
// expression. Both are bit-identical to the unhoisted form.
type unitWeights struct {
	lr   phy.UnitLR
	bits int
	w    [16]float64
}

func newUnitWeights(p, q float64, bits int) *unitWeights {
	u := &unitWeights{lr: phy.NewUnitLR(p, q), bits: bits}
	for k := range u.w {
		u.w[k] = math.Exp(u.lr.Log(bits, k))
	}
	return u
}

func (u *unitWeights) at(flips int) float64 {
	if flips < len(u.w) {
		return u.w[flips]
	}
	return math.Exp(u.lr.Log(u.bits, flips))
}

// cancelCheckMask sets the context-poll period of the estimator loops:
// every 4096 steps, cheap enough to vanish against even the lightest
// per-step work while keeping cancellation latency in the microseconds.
const cancelCheckMask = 4095

// ISFER estimates the deep-tail flit error rate P(≥1 bit error per flit)
// at BER by importance sampling at Proposal. The Analytic field of the
// estimate carries Eq. 1 at the true BER for cross-checking.
type ISFER struct {
	BER      float64 // true bit error rate (the quantity's operating point)
	Proposal float64 // tilted sampling rate; ≥ BER (see AutoProposalFER)
}

// Name implements Estimator.
func (e ISFER) Name() string { return "is-fer" }

// Run implements Estimator: `trials` flits through the tilted schedule.
func (e ISFER) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISFER needs at least one trial")
	}
	p, q := e.BER, e.Proposal
	ch := phy.TiltedChannel(p, q, phy.NewRNG(seed))
	wt := newUnitWeights(p, q, UnitBits)
	est := Estimate{Trials: trials, Analytic: analyticFER(p)}
	clean := walkTilted(ctx, ch, trials, func() {
		w := wt.at(ch.Traverse(UnitBits))
		est.SumW += w
		est.Hits++
		est.SumWZ += w
		est.SumWZ2 += w * w
	})
	est.SumW += float64(clean) * wt.at(0)
	est.finalize()
	return est
}

// ISPathFER estimates the multi-hop traversal error rate — P(≥1 flipped
// bit on any of Hops crossings of one shared path schedule) — at BER by
// importance sampling at Proposal. It is the deep-tail counterpart of
// reliability.MeasureFERPathSchedule: one trial is a whole traversal of
// span = Hops×UnitBits tilted bits, whole clean traversals are
// epoch-skipped in bulk with their constant weight folded in closed form,
// and a struck traversal jumps straight between its event crossings with
// the same clean-epoch arithmetic, drawing RNG only where the schedule
// actually fires. The Analytic field carries Eq. 1 over the whole span at
// the true BER.
type ISPathFER struct {
	BER      float64 // true bit error rate (the quantity's operating point)
	Proposal float64 // tilted sampling rate; ≥ BER (see AutoProposalFER)
	Hops     int     // crossings per traversal
}

// Name implements Estimator.
func (e ISPathFER) Name() string { return "is-pathfer" }

// Run implements Estimator: `trials` traversals through the tilted
// schedule.
func (e ISPathFER) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISPathFER needs at least one trial")
	}
	if e.Hops <= 0 {
		panic("rarevent: ISPathFER needs positive hops")
	}
	p, q := e.BER, e.Proposal
	hops := e.Hops
	span := hops * UnitBits
	ch := phy.TiltedChannel(p, q, phy.NewRNG(seed))
	wt := newUnitWeights(p, q, span)
	est := Estimate{
		Trials:   trials,
		Analytic: -math.Expm1(float64(span) * math.Log1p(-p)),
	}
	cleanTraversals := 0
	for i, steps := 0, 0; i < trials; steps++ {
		if steps&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		if n := ch.NextEvent() / span; n > 0 {
			if n > trials-i {
				n = trials - i
			}
			ch.Advance(n * span)
			cleanTraversals += n
			i += n
			continue
		}
		// Struck traversal: clean epochs between its event crossings are
		// advanced arithmetically; only event crossings touch the RNG.
		flips := 0
		for h := 0; h < hops; {
			if k := ch.NextEvent() / UnitBits; k > 0 {
				if k > hops-h {
					k = hops - h
				}
				ch.Advance(k * UnitBits)
				h += k
				continue
			}
			flips += ch.Traverse(UnitBits)
			h++
		}
		w := wt.at(flips)
		est.SumW += w
		if flips > 0 {
			est.Hits++
			est.SumWZ += w
			est.SumWZ2 += w * w
		}
		i++
	}
	est.SumW += float64(cleanTraversals) * wt.at(0)
	est.finalize()
	return est
}

// fecEvent classifies one struck flit's decode outcome for the staged
// failure chain.
type fecEvent int

const (
	fecHarmless fecEvent = iota // corrected, or flips cancelled
	fecDetected                 // uncorrectable, flagged → retry/drop
	fecMiss                     // decode "succeeded" on corrupted data
)

// isDecode runs `trials` flits through the tilted schedule, materializes
// every struck flit as a sealed 256B image, corrupts it per the schedule,
// decodes the RS interleave, and hands (weight, outcome) to sink. The
// shared walk behind ISUncorrectable and ISUndetected.
func isDecode(ctx context.Context, ber, proposal float64, trials int, seed uint64, sink func(w float64, ev fecEvent)) (sumW float64, struck int) {
	p, q := ber, proposal
	master := phy.NewRNG(seed)
	ch := phy.TiltedChannel(p, q, master.Split())
	payloadRNG := master.Split()
	wt := newUnitWeights(p, q, UnitBits)
	fec := flit.NewFEC()
	var f, reference flit.Flit
	clean := walkTilted(ctx, ch, trials, func() {
		payloadRNG.Fill(f.Payload())
		f.SealCXL(fec)
		reference = f
		k := ch.Corrupt(f.Raw[:])
		w := wt.at(k)
		sumW += w
		struck++
		ev := fecHarmless
		res := f.DecodeFEC(fec)
		intact := bytes.Equal(f.Raw[:flit.ProtectedSize], reference.Raw[:flit.ProtectedSize])
		switch res.Status {
		case rs.StatusUncorrectable:
			ev = fecDetected
		case rs.StatusClean, rs.StatusCorrected:
			// Zero syndromes despite flips, or a repair that landed on the
			// wrong codeword: corrupted data sails past the FEC.
			if !intact {
				ev = fecMiss
			}
		}
		sink(w, ev)
	})
	sumW += float64(clean) * wt.at(0)
	return sumW, struck
}

// ISUncorrectable estimates FER_UC — the per-flit probability that the
// channel leaves the flit uncorrectable by (or miscorrected through) the
// 3-way RS interleave — by importance sampling with real FEC decodes on
// materialized images. No closed form exists for the pure-iid channel;
// Analytic stays 0.
type ISUncorrectable struct {
	BER      float64
	Proposal float64 // see AutoProposalUC
}

// Name implements Estimator.
func (e ISUncorrectable) Name() string { return "is-feruc" }

// Run implements Estimator.
func (e ISUncorrectable) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISUncorrectable needs at least one trial")
	}
	est := Estimate{Trials: trials}
	sumW, _ := isDecode(ctx, e.BER, e.Proposal, trials, seed, func(w float64, ev fecEvent) {
		if ev == fecDetected || ev == fecMiss {
			est.Hits++
			est.SumWZ += w
			est.SumWZ2 += w * w
		}
	})
	est.SumW = sumW
	est.finalize()
	return est
}

// ISUndetected estimates FER_UD — the per-flit undetected failure rate:
// the channel corrupts the flit, the FEC decode misses, and the 64-bit
// CRC escapes. The FEC-miss probability is importance-sampled with real
// decodes; the CRC escape composes analytically (CRCEscape, the staged
// model's stage 4), exactly as reliability.StagedEstimate does at
// feasible rates.
type ISUndetected struct {
	BER      float64
	Proposal float64 // see AutoProposalUC
	// CRCEscape is the analytic stage-4 escape probability; zero selects
	// the 64-bit CRC's 2^-64.
	CRCEscape float64
}

// Name implements Estimator.
func (e ISUndetected) Name() string { return "is-ferud" }

// Run implements Estimator.
func (e ISUndetected) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISUndetected needs at least one trial")
	}
	escape := e.CRCEscape
	if escape == 0 {
		escape = 1.0 / (1 << 63) / 2 // 2^-64
	}
	est := Estimate{Trials: trials}
	sumW, _ := isDecode(ctx, e.BER, e.Proposal, trials, seed, func(w float64, ev fecEvent) {
		if ev == fecMiss {
			// Fold the analytic escape into the weight so Value, Variance
			// and RelErr all come out on the FER_UD scale.
			w *= escape
			est.Hits++
			est.SumWZ += w
			est.SumWZ2 += w * w
		}
	})
	est.SumW = sumW
	est.finalize()
	return est
}

// analyticFER is Eq. 1 at the given BER: 1 − (1−p)^2048.
func analyticFER(p float64) float64 {
	return -math.Expm1(float64(UnitBits) * math.Log1p(-p))
}
