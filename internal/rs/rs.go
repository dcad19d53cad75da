// Package rs implements shortened Reed-Solomon codes over GF(2^8) and the
// 3-way interleaved single-symbol-correct (SSC) FEC used by CXL 3.0 256-byte
// flits, as described in Section 2.5 of the paper.
//
// A Code with nparity parity symbols can correct up to nparity/2 symbol
// errors. CXL's flit FEC uses three independent codes with 2 parity symbols
// each (single symbol correction), interleaved byte-wise so that a burst of
// up to 3 consecutive wire bytes lands on at most one symbol per sub-block
// and is therefore always correctable.
//
// Because the codes are shortened (85/85/86-symbol codewords inside the
// 255-symbol mother code), a decoder that locates an "error" in one of the
// 170 (or 169) vacant positions knows the word is uncorrectable. This gives
// the shortened code its partial detection capability: roughly two thirds of
// uncorrectable sub-block errors are flagged rather than miscorrected, the
// property RXL leans on to let switches drop bad flits early.
package rs

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Status reports the outcome of a decode attempt.
type Status int

const (
	// StatusClean means the received word was a valid codeword.
	StatusClean Status = iota
	// StatusCorrected means errors were found and corrected in place.
	StatusCorrected
	// StatusUncorrectable means the decoder detected an error pattern it
	// cannot correct (including corrections that would land in the vacant
	// positions of a shortened code). The data must be discarded.
	StatusUncorrectable
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusClean:
		return "clean"
	case StatusCorrected:
		return "corrected"
	case StatusUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result describes a decode outcome.
type Result struct {
	Status Status
	// Corrected is the number of symbol errors corrected (0 unless
	// Status == StatusCorrected).
	Corrected int
}

// Code is a shortened Reed-Solomon code over GF(2^8) with k data symbols and
// nparity parity symbols. The codeword length k+nparity must not exceed 255.
type Code struct {
	k       int    // data symbols
	nparity int    // parity symbols (2t)
	n       int    // codeword length k+nparity
	gen     []byte // generator polynomial, monic, highest degree first
	// vec is the shared word-parallel syndrome table bank (see
	// syndrome.go); nil when nparity exceeds the packed lane count.
	vec *synTab
}

// New constructs a shortened RS code with k data symbols and nparity parity
// symbols. The generator polynomial is g(x) = prod_{j=0}^{nparity-1}(x - a^j).
func New(k, nparity int) (*Code, error) {
	if k <= 0 {
		return nil, errors.New("rs: k must be positive")
	}
	if nparity <= 0 {
		return nil, errors.New("rs: nparity must be positive")
	}
	if k+nparity > gf256.Order {
		return nil, fmt.Errorf("rs: codeword length %d exceeds %d", k+nparity, gf256.Order)
	}
	return &Code{k: k, nparity: nparity, n: k + nparity, gen: generator(nparity), vec: synTabFor(nparity)}, nil
}

// generator returns g(x) = prod_{j=0}^{nparity-1}(x - a^j), monic, highest
// degree first.
func generator(nparity int) []byte {
	gen := []byte{1}
	for j := 0; j < nparity; j++ {
		gen = gf256.PolyMul(gen, []byte{1, gf256.Exp(j)})
	}
	return gen
}

// MustNew is like New but panics on error. Intended for package-level
// construction of spec-fixed codes.
func MustNew(k, nparity int) *Code {
	c, err := New(k, nparity)
	if err != nil {
		panic(err)
	}
	return c
}

// DataLen returns k, the number of data symbols per codeword.
func (c *Code) DataLen() int { return c.k }

// ParityLen returns the number of parity symbols per codeword.
func (c *Code) ParityLen() int { return c.nparity }

// CodewordLen returns the shortened codeword length k+nparity.
func (c *Code) CodewordLen() int { return c.n }

// T returns the symbol-error correction capability nparity/2.
func (c *Code) T() int { return c.nparity / 2 }

// Encode computes the parity symbols for data (length k) into parity
// (length nparity). It implements systematic encoding: parity is the
// remainder of data(x)*x^nparity divided by the generator polynomial, so the
// transmitted codeword is data followed by parity.
//
// This byte-at-a-time LFSR loop is the encoder's pinned reference; the
// packed encoder in syndrome.go is differentially tested against it.
func (c *Code) Encode(data, parity []byte) {
	if len(data) != c.k {
		panic(fmt.Sprintf("rs: Encode data length %d, want %d", len(data), c.k))
	}
	if len(parity) != c.nparity {
		panic(fmt.Sprintf("rs: Encode parity length %d, want %d", len(parity), c.nparity))
	}
	for i := range parity {
		parity[i] = 0
	}
	// LFSR division: shift data through, feeding back by the generator's
	// lower coefficients (gen[0] is the monic leading 1).
	for _, d := range data {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[c.nparity-1] = 0
		if fb != 0 {
			for j := 1; j < len(c.gen); j++ {
				parity[j-1] ^= gf256.Mul(c.gen[j], fb)
			}
		}
	}
}

// syndromes computes S_j = r(alpha^j) for j in [0, nparity) over the
// received word (data || parity). It returns the syndrome slice and whether
// all syndromes are zero.
//
// This is the syndrome dispatch point of the RS kernel layer: codes with at
// most synLanes parity symbols evaluate all syndromes word-parallel (see
// syndrome.go) unless built with -tags purego, which pins the byte-level
// reference below. Both paths are bit-identical by construction and the
// differential and fuzz suites hold them to it.
func (c *Code) syndromes(data, parity []byte, synd []byte) bool {
	if packedKernels && c.vec != nil {
		w := c.syndromeWord(data, parity)
		for j := 0; j < c.nparity; j++ {
			synd[j] = byte(w >> (8 * uint(j)))
		}
		return w == 0
	}
	return c.syndromesRef(data, parity, synd)
}

// syndromesRef is the byte-at-a-time Horner reference — the loop every
// vectored path is differentially pinned against. Kept verbatim from the
// pre-kernel implementation; do not "optimize" it.
func (c *Code) syndromesRef(data, parity []byte, synd []byte) bool {
	allZero := true
	for j := 0; j < c.nparity; j++ {
		x := gf256.Exp(j)
		var acc byte
		for _, d := range data {
			acc = gf256.Mul(acc, x) ^ d
		}
		for _, p := range parity {
			acc = gf256.Mul(acc, x) ^ p
		}
		synd[j] = acc
		if acc != 0 {
			allZero = false
		}
	}
	return allZero
}

// Decode checks and, if necessary, corrects the received word consisting of
// data (length k) and parity (length nparity), in place.
//
// The decoder honours the shortened-code detection rule: a computed error
// location outside the transmitted codeword corresponds to one of the
// zero-padded vacant positions and is reported as uncorrectable rather than
// "corrected" (Section 2.5).
func (c *Code) Decode(data, parity []byte) Result {
	synd := make([]byte, c.nparity)
	return c.DecodeScratch(data, parity, synd)
}

// DecodeScratch is Decode with a caller-provided syndrome scratch buffer
// (length >= nparity), so repeated decodes stay allocation-free.
func (c *Code) DecodeScratch(data, parity, synd []byte) Result {
	if len(data) != c.k || len(parity) != c.nparity {
		panic("rs: Decode length mismatch")
	}
	synd = synd[:c.nparity]
	if c.syndromes(data, parity, synd) {
		return Result{Status: StatusClean}
	}
	if c.nparity == 2 {
		return c.decodeSingle(data, parity, synd)
	}
	return c.decodeBM(data, parity, synd)
}

// Verify reports whether data||parity is a valid codeword, via syndromes
// only: no locator search, no correction, no mutation. It is the cheapest
// byte-level integrity answer the code can give — the slow-path
// counterpart of the clean-mark skip, and the tool differential tests use
// to prove a claimed-clean image really is a codeword.
func (c *Code) Verify(data, parity []byte) bool {
	if len(data) != c.k || len(parity) != c.nparity {
		panic("rs: Verify length mismatch")
	}
	if packedKernels && c.vec != nil {
		// The packed word is zero exactly when every syndrome is; no
		// unpacking, no scratch.
		return c.syndromeWord(data, parity) == 0
	}
	var buf [8]byte
	synd := buf[:]
	if c.nparity > len(buf) {
		synd = make([]byte, c.nparity)
	}
	return c.syndromesRef(data, parity, synd[:c.nparity])
}

// VerifyReference is Verify on the byte-at-a-time reference loop,
// regardless of build tags or CPU features — the pinned baseline for the
// differential suites and the kernel benchmarks. Simulation code should
// call Verify.
func (c *Code) VerifyReference(data, parity []byte) bool {
	if len(data) != c.k || len(parity) != c.nparity {
		panic("rs: Verify length mismatch")
	}
	var buf [8]byte
	synd := buf[:]
	if c.nparity > len(buf) {
		synd = make([]byte, c.nparity)
	}
	return c.syndromesRef(data, parity, synd[:c.nparity])
}

// decodeSingle is the fast path for the 2-parity single-symbol-correct codes
// used by the CXL flit FEC. With syndromes S0 = e and S1 = e*alpha^p for a
// single error of magnitude e at polynomial position p, the position is
// log(S1/S0) and the magnitude is S0 directly.
func (c *Code) decodeSingle(data, parity []byte, synd []byte) Result {
	p, ok := c.locateSingle(synd[0], synd[1])
	if !ok {
		return Result{Status: StatusUncorrectable}
	}
	c.applyCorrection(data, parity, p, synd[0])
	return Result{Status: StatusCorrected, Corrected: 1}
}

// locateSingle returns the codeword position of the single symbol error
// with nonzero syndromes s0, s1 (its magnitude is s0), or false when the
// syndromes prove the word uncorrectable.
func (c *Code) locateSingle(s0, s1 byte) (int, bool) {
	if s0 == 0 || s1 == 0 {
		// A single symbol error always yields two nonzero syndromes;
		// one zero syndrome proves at least two errors.
		return 0, false
	}
	p := gf256.Log(s1) - gf256.Log(s0)
	if p < 0 {
		p += gf256.Order
	}
	// A position >= n falls in a vacant (zero-padded) position of the
	// shortened code: detected uncorrectable.
	return p, p < c.n
}

// applyCorrection XORs magnitude into the codeword coefficient of x^p.
// Positions [0, nparity) address parity (lowest degrees); positions
// [nparity, n) address data, with data[0] the highest-degree coefficient.
func (c *Code) applyCorrection(data, parity []byte, p int, magnitude byte) {
	if p < c.nparity {
		parity[c.nparity-1-p] ^= magnitude
	} else {
		data[c.k-1-(p-c.nparity)] ^= magnitude
	}
}

// decodeBM is the general decoder (Berlekamp-Massey + Chien search + Forney
// algorithm) for codes with more than 2 parity symbols. It is used by the
// ablation benchmarks comparing stronger per-sub-block FEC configurations.
func (c *Code) decodeBM(data, parity []byte, synd []byte) Result {
	t := c.nparity / 2

	// Berlekamp-Massey: find the error locator polynomial sigma
	// (lowest-degree coefficient first, sigma[0] == 1).
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for i := 0; i < c.nparity; i++ {
		var delta byte = synd[i]
		for j := 1; j <= l; j++ {
			if j < len(sigma) && i-j >= 0 {
				delta ^= gf256.Mul(sigma[j], synd[i-j])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := append([]byte(nil), sigma...)
			coef := gf256.Div(delta, b)
			sigma = polyAddShift(sigma, prev, coef, m)
			prev = tmp
			l = i + 1 - l
			b = delta
			m = 1
		} else {
			coef := gf256.Div(delta, b)
			sigma = polyAddShift(sigma, prev, coef, m)
			m++
		}
	}
	if l > t {
		return Result{Status: StatusUncorrectable}
	}

	// Chien search over the full 255-position mother codeword. Roots that
	// map to positions >= n fall in the vacant region: uncorrectable.
	var positions []int
	for p := 0; p < gf256.Order; p++ {
		// sigma(alpha^{-p}) == 0 <=> error at position p.
		x := gf256.Exp(-p)
		var acc byte
		for j := len(sigma) - 1; j >= 0; j-- {
			acc = gf256.Mul(acc, x) ^ sigma[j]
		}
		if acc == 0 {
			if p >= c.n {
				return Result{Status: StatusUncorrectable}
			}
			positions = append(positions, p)
		}
	}
	if len(positions) != l {
		// Locator degree does not match root count: >t errors.
		return Result{Status: StatusUncorrectable}
	}

	// Forney: Omega(x) = S(x) * sigma(x) mod x^nparity (lowest first).
	omega := make([]byte, c.nparity)
	for i := 0; i < c.nparity; i++ {
		for j := 0; j < len(sigma) && j <= i; j++ {
			omega[i] ^= gf256.Mul(synd[i-j], sigma[j])
		}
	}
	// sigma'(x): formal derivative; over GF(2^8) even-power terms vanish.
	for _, p := range positions {
		xInv := gf256.Exp(-p)
		var om byte
		for i := len(omega) - 1; i >= 0; i-- {
			om = gf256.Mul(om, xInv) ^ omega[i]
		}
		var sp byte
		for j := 1; j < len(sigma); j += 2 {
			sp ^= gf256.Mul(sigma[j], gf256.Pow(xInv, j-1))
		}
		if sp == 0 {
			return Result{Status: StatusUncorrectable}
		}
		// b=0 convention: e_p = X_p * Omega(X_p^{-1}) / sigma'(X_p^{-1}).
		mag := gf256.Mul(gf256.Exp(p), gf256.Div(om, sp))
		if mag == 0 {
			return Result{Status: StatusUncorrectable}
		}
		c.applyCorrection(data, parity, p, mag)
	}

	// Safety recheck: corrected word must be a codeword.
	recheck := make([]byte, c.nparity)
	if !c.syndromes(data, parity, recheck) {
		return Result{Status: StatusUncorrectable}
	}
	return Result{Status: StatusCorrected, Corrected: len(positions)}
}

// polyAddShift returns a + coef * x^shift * b, with polynomials stored
// lowest-degree-first.
func polyAddShift(a, b []byte, coef byte, shift int) []byte {
	size := len(a)
	if len(b)+shift > size {
		size = len(b) + shift
	}
	out := make([]byte, size)
	copy(out, a)
	for i, bc := range b {
		out[i+shift] ^= gf256.Mul(bc, coef)
	}
	return out
}
