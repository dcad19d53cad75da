package rs

import (
	"fmt"

	"repro/internal/gf256"
)

// Interleaved is a byte-interleaved bank of identical-strength shortened RS
// codes. CXL 3.0's flit FEC is Interleaved{total: 250, ways: 3, nparity: 2}:
// byte i of the protected region belongs to sub-block i mod 3, each
// sub-block carries 2 parity bytes, and the round-robin assignment continues
// uninterrupted across the parity field (wire byte total+x belongs to
// sub-block (total+x) mod ways). A burst of up to `ways` consecutive wire
// bytes — anywhere in the flit, including straddling the data/parity
// boundary — therefore touches at most one symbol per sub-block and is
// always correctable when each sub-block corrects a single symbol.
type Interleaved struct {
	total   int // protected data bytes
	ways    int
	nparity int // parity symbols per way
	codes   []*Code
	// vec is the codes' shared packed kernel bank, set only for the CXL
	// flit geometry (3 ways, 2 parity symbols each) outside purego builds;
	// nil selects the deinterleaving reference paths.
	vec *synTab
	// scratch buffers reused across calls; an Interleaved is NOT safe for
	// concurrent use. Clone per goroutine.
	deint  [][]byte
	parity [][]byte
	synd   []byte
	st     []uint64 // per-way encoder registers or syndrome words
	fix    []fixup  // per-way corrections held back by Decode
}

// fixup is one way's single-symbol correction, held back until every way
// has decoded so an uncorrectable flit is never partially mutated.
type fixup struct {
	p   int  // codeword position to XOR mag into
	mag byte // 0: no correction
}

// NewInterleaved builds a ways-way interleaved bank protecting total data
// bytes with nparity parity symbols per way.
func NewInterleaved(total, ways, nparity int) (*Interleaved, error) {
	if total <= 0 || ways <= 0 || nparity <= 0 {
		return nil, fmt.Errorf("rs: invalid interleave geometry total=%d ways=%d nparity=%d", total, ways, nparity)
	}
	il := &Interleaved{total: total, ways: ways, nparity: nparity}
	for w := 0; w < ways; w++ {
		k := total / ways
		if w < total%ways {
			k++
		}
		if k == 0 {
			return nil, fmt.Errorf("rs: interleave way %d would be empty", w)
		}
		c, err := New(k, nparity)
		if err != nil {
			return nil, err
		}
		il.codes = append(il.codes, c)
	}
	if packedKernels && ways == 3 && nparity == 2 {
		il.vec = il.codes[0].vec
	}
	il.allocScratch()
	return il, nil
}

// MustNewInterleaved is like NewInterleaved but panics on error.
func MustNewInterleaved(total, ways, nparity int) *Interleaved {
	il, err := NewInterleaved(total, ways, nparity)
	if err != nil {
		panic(err)
	}
	return il
}

// Clone returns an independent Interleaved with its own scratch buffers,
// sharing the immutable code definitions.
func (il *Interleaved) Clone() *Interleaved {
	c := &Interleaved{total: il.total, ways: il.ways, nparity: il.nparity, codes: il.codes, vec: il.vec}
	c.allocScratch()
	return c
}

func (il *Interleaved) allocScratch() {
	for _, c := range il.codes {
		il.deint = append(il.deint, make([]byte, c.DataLen()))
		il.parity = append(il.parity, make([]byte, il.nparity))
	}
	il.synd = make([]byte, il.nparity)
	il.st = make([]uint64, il.ways)
	il.fix = make([]fixup, il.ways)
}

// DataLen returns the number of protected data bytes.
func (il *Interleaved) DataLen() int { return il.total }

// ParityLen returns the total number of parity bytes on the wire.
func (il *Interleaved) ParityLen() int { return il.ways * il.nparity }

// Ways returns the interleaving factor.
func (il *Interleaved) Ways() int { return il.ways }

// SubBlockLens returns the shortened codeword length of each way, e.g.
// [86 85 85] for the CXL flit FEC.
func (il *Interleaved) SubBlockLens() []int {
	out := make([]int, il.ways)
	for w, c := range il.codes {
		out[w] = c.CodewordLen()
	}
	return out
}

// parityStart returns the first wire parity slot of way w. The parity
// field continues the data round-robin, so way w owns the slots x with
// (total+x) mod ways == w: parityStart(w), +ways, +2·ways, …. Any run of
// ways·nparity consecutive positions hits each residue class exactly
// nparity times, so every way receives its full parity, and a burst
// crossing the data/parity boundary still spreads across sub-blocks.
func (il *Interleaved) parityStart(w int) int {
	return (w + il.ways - il.total%il.ways) % il.ways
}

// gather copies way w's data and parity symbols out of the wire layout
// into the deinterleaved scratch codeword.
func (il *Interleaved) gather(w int, data, parity []byte) {
	d, p, off := il.deint[w], il.parity[w], il.parityStart(w)
	for i := range d {
		d[i] = data[i*il.ways+w]
	}
	for j := range p {
		p[j] = parity[off+j*il.ways]
	}
}

// scatter writes way w's scratch codeword back into the wire layout.
func (il *Interleaved) scatter(w int, data, parity []byte) {
	d, p, off := il.deint[w], il.parity[w], il.parityStart(w)
	for i := range d {
		data[i*il.ways+w] = d[i]
	}
	for j := range p {
		parity[off+j*il.ways] = p[j]
	}
}

func (il *Interleaved) checkLens(op string, data, parity []byte) {
	if len(data) != il.total {
		panic(fmt.Sprintf("rs: interleaved %s data length %d, want %d", op, len(data), il.total))
	}
	if len(parity) != il.ParityLen() {
		panic(fmt.Sprintf("rs: interleaved %s parity length %d, want %d", op, len(parity), il.ParityLen()))
	}
}

// Encode computes the interleaved parity for data (length DataLen) into
// parity (length ParityLen). The parity wire layout continues the data
// round-robin: parity slot x carries the next symbol of way (total+x)%ways.
//
// The packed path reads the three ways straight off the wire layout and
// runs their registers in one pass.
func (il *Interleaved) Encode(data, parity []byte) {
	il.checkLens("Encode", data, parity)
	if il.vec == nil {
		il.encodeRef(data, parity)
		return
	}
	il.st[0], il.st[1], il.st[2] = il.vec.encode3(data)
	for w, st := range il.st {
		off := il.parityStart(w)
		for j := 0; j < il.nparity; j++ {
			parity[off+j*il.ways] = byte(st >> (56 - 8*uint(j)))
		}
	}
}

// EncodeReference is Encode on the deinterleaved byte-level LFSR loop of
// every way (Code.Encode), regardless of build tags — the pinned baseline for the
// differential suites and kernel benchmarks. Simulation code should call
// Encode.
func (il *Interleaved) EncodeReference(data, parity []byte) {
	il.checkLens("Encode", data, parity)
	il.encodeRef(data, parity)
}

func (il *Interleaved) encodeRef(data, parity []byte) {
	for w, c := range il.codes {
		il.gather(w, data, parity)
		c.Encode(il.deint[w], il.parity[w])
		il.scatter(w, data, parity)
	}
}

// Decode checks and corrects data and parity in place. The whole flit is
// uncorrectable as soon as any single way is uncorrectable, in which case
// data and parity are left untouched; corrected counts accumulate across
// ways.
//
// The packed path computes each way's syndromes on the wire layout and
// applies the single-symbol corrections there directly, after every way
// has passed.
func (il *Interleaved) Decode(data, parity []byte) Result {
	il.checkLens("Decode", data, parity)
	if il.vec == nil {
		return il.decodeRef(data, parity)
	}
	il.syndromeWords(data, parity)
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		il.fix[w] = fixup{}
		sw := il.st[w]
		if sw == 0 {
			continue
		}
		p, ok := c.locateSingle(byte(sw), byte(sw>>8))
		if !ok {
			return Result{Status: StatusUncorrectable}
		}
		il.fix[w] = fixup{p: p, mag: byte(sw)}
		total.Status = StatusCorrected
		total.Corrected++
	}
	for w, f := range il.fix {
		if f.mag != 0 {
			il.applyCorrection(w, data, parity, f.p, f.mag)
		}
	}
	return total
}

// applyCorrection is Code.applyCorrection for way w on the wire layout.
func (il *Interleaved) applyCorrection(w int, data, parity []byte, p int, magnitude byte) {
	c := il.codes[w]
	if p < il.nparity {
		parity[il.parityStart(w)+(il.nparity-1-p)*il.ways] ^= magnitude
	} else {
		data[(c.k-1-(p-il.nparity))*il.ways+w] ^= magnitude
	}
}

// decodeRef is the deinterleaving decoder: each way is copied out, decoded
// by its Code, and copied back only once every way has passed.
func (il *Interleaved) decodeRef(data, parity []byte) Result {
	for w := range il.codes {
		il.gather(w, data, parity)
	}
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		res := c.DecodeScratch(il.deint[w], il.parity[w], il.synd)
		switch res.Status {
		case StatusUncorrectable:
			return Result{Status: StatusUncorrectable}
		case StatusCorrected:
			total.Status = StatusCorrected
			total.Corrected += res.Corrected
		}
	}
	if total.Status == StatusCorrected {
		for w := range il.codes {
			il.scatter(w, data, parity)
		}
	}
	return total
}

// Verify reports whether data||parity is a valid interleaved codeword via
// syndromes only — no correction attempt, no mutation. See Code.Verify.
func (il *Interleaved) Verify(data, parity []byte) bool {
	il.checkLens("Verify", data, parity)
	if il.vec == nil {
		return il.verifyRef(data, parity)
	}
	il.syndromeWords(data, parity)
	for _, sw := range il.st {
		if sw != 0 {
			return false
		}
	}
	return true
}

// syndromeWords leaves each way's packed syndrome word (see
// Code.syndromeWord) in il.st, computed on the wire layout with the three
// ways' data evaluated in one fused pass.
func (il *Interleaved) syndromeWords(data, parity []byte) {
	il.st[0], il.st[1], il.st[2] = il.vec.horner2x3(data)
	for w, acc := range il.st {
		il.st[w] = il.vec.horner2(acc, parity, il.parityStart(w), il.ways)
	}
}

// VerifyReference is Verify on the byte-level reference syndrome loop of
// every way, bypassing the word-parallel kernel. Differential suites use it
// as the pinned slow path; simulation code should call Verify.
func (il *Interleaved) VerifyReference(data, parity []byte) bool {
	il.checkLens("Verify", data, parity)
	return il.verifyRef(data, parity)
}

func (il *Interleaved) verifyRef(data, parity []byte) bool {
	for w, c := range il.codes {
		il.gather(w, data, parity)
		if !c.VerifyReference(il.deint[w], il.parity[w]) {
			return false
		}
	}
	return true
}

// VacantFraction returns the fraction of the mother-code position space that
// is vacant for way w — the source of the shortened code's detection power
// (~170/255 = 2/3 for the CXL sub-blocks).
func (il *Interleaved) VacantFraction(w int) float64 {
	return float64(gf256.Order-il.codes[w].CodewordLen()) / float64(gf256.Order)
}
