// Word-parallel syndrome evaluation: the vectored half of the coding
// kernel layer (the CRC half lives in internal/crc).
//
// All nparity syndromes are Horner evaluations of the same received word
// at the points α^0..α^(nparity-1). Packing the accumulators S_0..S_(np-1)
// into the byte lanes of one uint64 turns the per-byte inner step
//
//	S_j ← S_j·α^j ⊕ d        (for every j)
//
// into a handful of table lookups on the whole word: multiplying lane j by
// its fixed constant α^j is GF(2)-linear in the lane byte, so a 256-entry
// uint64 table per lane advances that lane and the results XOR together.
// Broadcasting the data byte into the active lanes is one integer multiply
// by the lane mask. The hot loop consumes two received bytes per
// iteration — the accumulator advance uses two-step tables (α^(2j)), the
// older data byte is pre-advanced one step through a shared lookup (g1),
// and the newer one is broadcast directly — so the loop-carried dependence
// is np parallel L1 loads per two bytes instead of 2·np serial
// exp/log-table multiplies.
//
// The same bank also packs the systematic encoder: the nparity-symbol LFSR
// parity register fits one uint64, left-aligned (parity symbol j in byte
// 7-j, unused low bytes zero), so one shift-in step is
//
//	state ← state<<8 ⊕ enc[d ⊕ byte(state>>56)]
//
// where enc[fb] is the feedback fb·g(x) (generator minus its monic term)
// pre-placed in lane order. The feedback is GF(2)-linear in fb, so two
// steps fold into two independent lookups on the current register: enc2
// absorbs the first step's feedback into the second, halving the
// loop-carried chain. Like the advance tables, enc and enc2 depend only on
// nparity.
//
// horner2 and encode take a start offset and stride so the CXL flit's
// interleaved bank (3 ways, 2 parity symbols each) runs directly on the
// wire layout: way w is the bytes w, w+3, w+6, … of the data region, and
// its parity symbols are likewise every third parity slot (see
// Interleaved).
//
// The byte-at-a-time loops in rs.go (syndromesRef, Encode) are kept
// verbatim as the reference this path is differentially pinned
// against; the purego build tag (and nparity > 8) falls back to them.
package rs

import (
	"sync"

	"repro/internal/gf256"
)

// synLanes is the widest bank the packed evaluator supports: eight
// syndrome lanes in one 64-bit word. Codes with more parity symbols use
// the byte-level reference.
const synLanes = 8

// synTab holds the per-lane advance tables for one nparity. Tables depend
// only on nparity (never on k), so they are shared process-wide across all
// codes of equal strength.
type synTab struct {
	np   int
	mask uint64 // byte 0x01 in each of the np low lanes
	// t1[j][b]: lane j advanced one Horner step, b·α^j, pre-shifted into
	// lane position. Used for odd tails and the final unpaired byte.
	t1 [][256]uint64
	// t2[j][b]: lane j advanced two steps, b·α^(2j), pre-shifted.
	t2 [][256]uint64
	// g1[b]: the data byte one step from the pair boundary, advanced one
	// step in every lane at once (XOR over j of t1[j][b]).
	g1 [256]uint64
	// enc[fb]: the encoder feedback fb·(g(x) − x^np), left-aligned
	// (coefficient of x^(np-1-i) in byte 7-i). enc2[fb]: the register
	// after feeding back fb and then the feedback that produces,
	// enc[fb]<<8 ⊕ enc[byte(enc[fb]>>56)].
	enc  [256]uint64
	enc2 [256]uint64
}

var (
	synTabMu sync.Mutex
	synTabs  [synLanes + 1]*synTab
)

// synTabFor returns the shared advance tables for an nparity-lane bank,
// building them on first use. Returns nil when nparity exceeds synLanes.
func synTabFor(nparity int) *synTab {
	if nparity < 1 || nparity > synLanes {
		return nil
	}
	synTabMu.Lock()
	defer synTabMu.Unlock()
	if v := synTabs[nparity]; v != nil {
		return v
	}
	v := &synTab{
		np: nparity,
		t1: make([][256]uint64, nparity),
		t2: make([][256]uint64, nparity),
	}
	for j := 0; j < nparity; j++ {
		a1 := gf256.Exp(j)
		a2 := gf256.Mul(a1, a1)
		shift := 8 * uint(j)
		for b := 0; b < 256; b++ {
			v.t1[j][b] = uint64(gf256.Mul(byte(b), a1)) << shift
			v.t2[j][b] = uint64(gf256.Mul(byte(b), a2)) << shift
			v.g1[b] ^= v.t1[j][b]
		}
		v.mask |= 1 << shift
	}
	gen := generator(nparity)
	for fb := 0; fb < 256; fb++ {
		for j := 1; j <= nparity; j++ {
			v.enc[fb] |= uint64(gf256.Mul(gen[j], byte(fb))) << (64 - 8*uint(j))
		}
	}
	for fb := range v.enc2 {
		e := v.enc[fb]
		v.enc2[fb] = e<<8 ^ v.enc[byte(e>>56)]
	}
	synTabs[nparity] = v
	return v
}

// syndromeWord evaluates all syndromes of data||parity packed into one
// uint64, lane j holding S_j. The word is zero exactly when the received
// word is a codeword. Requires c.vec != nil (nparity ≤ synLanes).
func (c *Code) syndromeWord(data, parity []byte) uint64 {
	if c.nparity == 2 {
		// The spec-fixed single-symbol-correct codes: a dedicated
		// two-lane loop keeps the table pointers in registers.
		acc := c.vec.horner2(0, data, 0, 1)
		return c.vec.horner2(acc, parity, 0, 1)
	}
	acc := c.vec.hornerN(0, data)
	return c.vec.hornerN(acc, parity)
}

// horner2 advances a two-lane accumulator across s[i], s[i+stride], ….
func (v *synTab) horner2(acc uint64, s []byte, i, stride int) uint64 {
	t2a, t2b := &v.t2[0], &v.t2[1]
	g1 := &v.g1
	for ; i+stride < len(s); i += 2 * stride {
		acc = t2a[byte(acc)] ^ t2b[byte(acc>>8)] ^
			g1[s[i]] ^ uint64(s[i+stride])*0x0101
	}
	if i < len(s) {
		acc = v.t1[0][byte(acc)] ^ v.t1[1][byte(acc>>8)] ^
			uint64(s[i])*0x0101
	}
	return acc
}

// hornerN is the generic bank (3 ≤ np ≤ 8): same two-byte schedule, lane
// advance in a short loop.
func (v *synTab) hornerN(acc uint64, s []byte) uint64 {
	i := 0
	for ; i+1 < len(s); i += 2 {
		var next uint64
		for j := 0; j < v.np; j++ {
			next ^= v.t2[j][byte(acc>>(8*uint(j)))]
		}
		acc = next ^ v.g1[s[i]] ^ uint64(s[i+1])*v.mask
	}
	if i < len(s) {
		var next uint64
		for j := 0; j < v.np; j++ {
			next ^= v.t1[j][byte(acc>>(8*uint(j)))]
		}
		acc = next ^ uint64(s[i])*v.mask
	}
	return acc
}

// horner2x3 advances the three accumulators of a 3-way interleaved
// two-lane bank (the CXL flit geometry) across the whole data region in
// one pass, so the three ways' dependency chains overlap. Way w's symbols
// are data[w], data[w+3], ….
func (v *synTab) horner2x3(data []byte) (a0, a1, a2 uint64) {
	t2a, t2b := &v.t2[0], &v.t2[1]
	g1 := &v.g1
	d := data
	for len(d) >= 6 {
		a0 = t2a[byte(a0)] ^ t2b[byte(a0>>8)] ^ g1[d[0]] ^ uint64(d[3])*0x0101
		a1 = t2a[byte(a1)] ^ t2b[byte(a1>>8)] ^ g1[d[1]] ^ uint64(d[4])*0x0101
		a2 = t2a[byte(a2)] ^ t2b[byte(a2>>8)] ^ g1[d[2]] ^ uint64(d[5])*0x0101
		d = d[6:]
	}
	i := len(data) - len(d)
	return v.horner2(a0, data, i, 3), v.horner2(a1, data, i+1, 3), v.horner2(a2, data, i+2, 3)
}

// encode continues the packed LFSR register st across data[i],
// data[i+stride], … and returns it (parity symbol j in byte 7-j). Each
// loop step consumes two symbols through enc2/enc.
func (v *synTab) encode(st uint64, data []byte, i, stride int) uint64 {
	enc, enc2 := &v.enc, &v.enc2
	for ; i+stride < len(data); i += 2 * stride {
		st = st<<16 ^ enc2[data[i]^byte(st>>56)] ^ enc[data[i+stride]^byte(st>>48)]
	}
	if i < len(data) {
		st = st<<8 ^ enc[data[i]^byte(st>>56)]
	}
	return st
}

// encode3 runs the registers of a 3-way interleaved bank in one pass over
// the wire layout, so the three lanes' dependency chains overlap.
func (v *synTab) encode3(data []byte) (s0, s1, s2 uint64) {
	enc, enc2 := &v.enc, &v.enc2
	d := data
	for len(d) >= 6 {
		s0 = s0<<16 ^ enc2[d[0]^byte(s0>>56)] ^ enc[d[3]^byte(s0>>48)]
		s1 = s1<<16 ^ enc2[d[1]^byte(s1>>56)] ^ enc[d[4]^byte(s1>>48)]
		s2 = s2<<16 ^ enc2[d[2]^byte(s2>>56)] ^ enc[d[5]^byte(s2>>48)]
		d = d[6:]
	}
	i := len(data) - len(d)
	return v.encode(s0, data, i, 3), v.encode(s1, data, i+1, 3), v.encode(s2, data, i+2, 3)
}
