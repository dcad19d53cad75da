// Package switchfab models the switching devices that turn point-to-point
// CXL links into scale-out fabrics — and that silently drop uncorrectable
// flits, the failure mode at the center of the paper (Sections 2.3, 6.4).
//
// A switch terminates the FEC on ingress (decode, correct, or drop) and
// regenerates it on egress. The two protocol stacks differ in what happens
// to the CRC:
//
//   - ModeCXL: the CRC is a link-layer mechanism, so the switch verifies it
//     on ingress (dropping silently on failure) and regenerates it on
//     egress. Anything corrupted *inside* the switch — after the check,
//     before the regeneration — is blessed by the fresh CRC and becomes
//     undetectable downstream (Section 6.3).
//
//   - ModeRXL: the CRC is transport-layer (ECRC). The switch never touches
//     it; only the FEC is terminated per hop. Internal corruption therefore
//     survives to the endpoint, where the 64-bit ECRC catches it.
//
// Switches are stateless with respect to sequence numbers in both modes —
// in RXL because ISN validation happens only at endpoints (the design goal
// of Section 6.1), in CXL because the spec's switches simply do not track
// flow state.
package switchfab

import (
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/rs"
	"repro/internal/sim"
)

// Mode selects the protocol stack the switch participates in.
type Mode int

const (
	// ModeCXL terminates CRC and FEC per hop (baseline stack, Fig. 7a).
	ModeCXL Mode = iota
	// ModeRXL terminates only FEC per hop; CRC passes through end-to-end
	// (RXL stack, Fig. 7b).
	ModeRXL
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeRXL {
		return "RXL"
	}
	return "CXL"
}

// Stats counts per-switch events.
type Stats struct {
	FlitsIn              uint64
	Forwarded            uint64 // flits sent onward to another hop
	DeliveredLocal       uint64 // mesh routers: flits handed to the attached node
	DroppedUncorrectable uint64 // FEC-detected, silently discarded
	DroppedCRC           uint64 // ModeCXL only: link CRC failures discarded
	DroppedNoRoute       uint64 // crossbar: unknown destination
	CorrectedFlits       uint64
	CorrectedSymbols     uint64
	InternalCorruptions  uint64 // injected internal faults
	// QueuePeak is the high-water mark of the switch's output queues —
	// the deepest serialization backlog any of its egress wires (or, for
	// mesh routers, its node-ingress wire) ever reached, in flits. It is
	// the per-node backpressure number of the incast/single-sink
	// scenarios; mesh fabrics fold it in via Mesh.SyncQueuePeaks. In
	// totals it aggregates by max, not sum.
	QueuePeak uint64
}

// Switch is a single switching element processing flits between two
// endpoints (one per direction via Pipeline). It holds no per-connection
// state.
type Switch struct {
	Name string
	Eng  *sim.Engine
	Mode Mode

	// Latency is the ingress-to-egress processing delay.
	Latency sim.Time

	// InternalBitFlipProb is the per-flit probability of a single-bit
	// internal fault (buffer or datapath corruption) occurring between
	// ingress checking and egress re-encoding.
	InternalBitFlipProb float64

	// InternalHook, when non-nil, may mutate the flit at the internal
	// fault point; return true to count it as a corruption. Used by the
	// deterministic Section 6.3 experiments.
	InternalHook func(*flit.Flit) bool

	fec *rs.Interleaved
	rng *phy.RNG

	Stats Stats
}

// NewSwitch constructs a switch. rng may be nil if no probabilistic
// internal faults are configured.
func NewSwitch(name string, eng *sim.Engine, mode Mode, latency sim.Time, rng *phy.RNG) *Switch {
	return &Switch{Name: name, Eng: eng, Mode: mode, Latency: latency, fec: flit.NewFEC(), rng: rng}
}

// SeedInternalFaults enables probabilistic internal corruption: each flit
// suffers a single-bit datapath flip with probability prob, drawn from
// rng (Section 6.3).
func (s *Switch) SeedInternalFaults(prob float64, rng *phy.RNG) {
	s.InternalBitFlipProb = prob
	s.rng = rng
}

// Pipeline returns the ingress function for one direction, forwarding
// processed flits onto egress. Use it as the deliver callback of the
// ingress wire.
//
// The ingress-to-egress latency is folded into the egress wire claim
// (SendAfter): the flit's serialization starts no earlier than
// arrival+Latency, which lands it downstream at exactly the time a
// separate forward event would — without scheduling that event. Per-hop
// event count is what the multi-hop fabrics pay the engine for.
func (s *Switch) Pipeline(egress *link.Wire) func(*flit.Flit) {
	return func(f *flit.Flit) {
		if !s.process(f) {
			flit.Release(f)
			return
		}
		s.forward(f, egress)
	}
}

func (s *Switch) forward(f *flit.Flit, egress *link.Wire) {
	s.Stats.Forwarded++
	egress.SendAfter(f, s.Eng.Now()+s.Latency)
}

// process runs the ingress/egress pipeline on f in place. It returns false
// if the flit was discarded.
//
// Clean flits cross in O(1): the FEC decode and CRC check below
// short-circuit inside the flit layer, only the internal fault point draws
// (so the RNG stream matches the byte-level reference), and the egress
// regeneration resolves to a no-op on an image that never changed.
//
// The FEC is re-encoded only when the internal fault point touched the
// image. A flit that decoded clean or corrected is already a valid
// codeword — a single-symbol correction zeroes both syndromes and the
// general decoder re-checks its result — and a systematic code has exactly
// one codeword per data word, so re-encoding it would rewrite the parity
// bytes it already carries.
func (s *Switch) process(f *flit.Flit) bool {
	s.Stats.FlitsIn++

	// Ingress: FEC decode. Uncorrectable flits are discarded without any
	// notification to the destination — the silent drop (Section 2.3).
	res := f.DecodeFEC(s.fec)
	switch res.Status {
	case rs.StatusUncorrectable:
		s.Stats.DroppedUncorrectable++
		return false
	case rs.StatusCorrected:
		s.Stats.CorrectedFlits++
		s.Stats.CorrectedSymbols += uint64(res.Corrected)
	}

	// ModeCXL terminates the link CRC per hop: check on ingress, drop on
	// failure (forwarding a flit with a known-bad CRC risks misrouting).
	if s.Mode == ModeCXL && !f.CheckCRC() {
		s.Stats.DroppedCRC++
		return false
	}

	// Internal fault point: datapath/buffer corruption inside the switch.
	// A deferred seal is materialized before the image mutates, so the
	// corruption lands on the byte-exact sealed image.
	// A hook may mutate the image even when it does not report a
	// corruption, so any hook call counts as touching it.
	corrupted, touched := false, false
	if s.InternalHook != nil {
		f.Materialize(s.fec)
		f.Taint()
		touched = true
		if s.InternalHook(f) {
			corrupted = true
		}
	}
	if s.InternalBitFlipProb > 0 && s.rng != nil && s.rng.Float64() < s.InternalBitFlipProb {
		bit := s.rng.Intn((flit.HeaderSize + flit.PayloadSize) * 8)
		f.Materialize(s.fec)
		f.Raw[bit/8] ^= 1 << (7 - bit%8)
		f.Taint()
		corrupted, touched = true, true
	}
	if corrupted {
		s.Stats.InternalCorruptions++
	}

	// Egress: ModeCXL regenerates the CRC — blessing any internal
	// corruption. ModeRXL leaves the end-to-end CRC untouched. On an
	// untouched flit the rewrite stores the CRC the ingress check just
	// matched, but it still switches a clean flit's seal kind to plain.
	if s.Mode == ModeCXL {
		f.RecomputeCRC()
	}
	if touched {
		f.ReencodeFEC(s.fec)
	}
	return true
}
