package rs

import (
	"math/rand"
	"testing"
)

// geometries spans the kernel's dispatch regimes: the spec-fixed CXL
// sub-blocks (2 parity), odd/even data lengths, the BM-decoder ablation
// strengths, the widest packed bank (8 lanes), and one code past the lane
// limit that must fall back to the reference loop.
var geometries = []struct{ k, np int }{
	{84, 2}, {83, 2}, {1, 2}, {2, 2}, // SSC family incl. degenerate sizes
	{20, 3}, {40, 4}, {100, 6}, {50, 8}, // packed bank widths
	{30, 10}, // beyond synLanes: reference fallback
}

// corrupt XORs e random symbol errors into the codeword.
func corrupt(rng *rand.Rand, data, parity []byte, e int) {
	n := len(data) + len(parity)
	for i := 0; i < e; i++ {
		p := rng.Intn(n)
		m := byte(1 + rng.Intn(255))
		if p < len(data) {
			data[p] ^= m
		} else {
			parity[p-len(data)] ^= m
		}
	}
}

// TestSyndromesVectoredMatchesReference pins the word-parallel evaluator
// to the byte-level reference, lane by lane, across geometries, error
// weights (clean through far beyond t), and random words.
func TestSyndromesVectoredMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range geometries {
		c := MustNew(g.k, g.np)
		data := make([]byte, g.k)
		parity := make([]byte, g.np)
		sv := make([]byte, g.np)
		sr := make([]byte, g.np)
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			c.Encode(data, parity)
			corrupt(rng, data, parity, rng.Intn(g.np+2))
			zv := c.syndromes(data, parity, sv)
			zr := c.syndromesRef(data, parity, sr)
			if zv != zr {
				t.Fatalf("k=%d np=%d: allZero %v != ref %v", g.k, g.np, zv, zr)
			}
			for j := range sv {
				if sv[j] != sr[j] {
					t.Fatalf("k=%d np=%d: S_%d = %#x, ref %#x", g.k, g.np, j, sv[j], sr[j])
				}
			}
			if c.vec != nil {
				w := c.syndromeWord(data, parity)
				for j := 0; j < g.np; j++ {
					if byte(w>>(8*uint(j))) != sr[j] {
						t.Fatalf("k=%d np=%d: word lane %d = %#x, ref %#x",
							g.k, g.np, j, byte(w>>(8*uint(j))), sr[j])
					}
				}
			}
			if got, want := c.Verify(data, parity), c.VerifyReference(data, parity); got != want {
				t.Fatalf("k=%d np=%d: Verify %v != VerifyReference %v", g.k, g.np, got, want)
			}
		}
	}
}

// TestSynTabSharing: the advance tables are shared per nparity across
// codes, and codes past the packed lane count carry no bank.
func TestSynTabSharing(t *testing.T) {
	a := MustNew(84, 2)
	b := MustNew(10, 2)
	if a.vec == nil || a.vec != b.vec {
		t.Fatal("codes of equal nparity should share one synTab")
	}
	if MustNew(30, 10).vec != nil {
		t.Fatal("nparity > synLanes should have no packed bank")
	}
	if a.vec.np != 2 || a.vec.mask != 0x0101 {
		t.Fatalf("2-lane bank malformed: np=%d mask=%#x", a.vec.np, a.vec.mask)
	}
}

// TestVerifyAllocFree: the verify-skip entry points must not allocate on
// either path — they sit inside the Monte-Carlo inner loops.
func TestVerifyAllocFree(t *testing.T) {
	c := MustNew(84, 2)
	data := make([]byte, 84)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	if n := testing.AllocsPerRun(100, func() { c.Verify(data, parity) }); n != 0 {
		t.Errorf("Verify allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.VerifyReference(data, parity) }); n != 0 {
		t.Errorf("VerifyReference allocates %v per run", n)
	}
	synd := make([]byte, 2)
	if n := testing.AllocsPerRun(100, func() { c.DecodeScratch(data, parity, synd) }); n != 0 {
		t.Errorf("DecodeScratch (clean) allocates %v per run", n)
	}
}

// FuzzVerifyDecode drives random error patterns (including weights beyond
// t) through both syndrome paths and the full decoder, asserting the
// vectored/reference verdicts agree and the decode outcome is
// self-consistent: a corrected word must re-verify clean on the reference
// loop, and corrections never exceed t. The same pattern, spread over the
// wire layout of a 1-5 way interleaved bank, must decode in place exactly
// as the deinterleaving reference does, and leave an uncorrectable flit
// untouched. The CI kernel leg replays the committed corpus under both the
// default and purego builds.
func FuzzVerifyDecode(f *testing.F) {
	f.Add(uint8(84), uint8(2), []byte{}, []byte{})
	f.Add(uint8(84), uint8(2), []byte{1, 2, 3}, []byte{0, 1, 40, 2, 85, 3})
	f.Add(uint8(20), uint8(4), []byte{9, 9, 9, 9}, []byte{5, 7, 11, 13, 17, 19, 23, 29})
	f.Add(uint8(50), uint8(8), []byte{0xFF}, []byte{57, 0xAA})
	f.Add(uint8(83), uint8(17), []byte{4, 2}, []byte{0, 7, 1, 9, 200, 3})
	f.Fuzz(func(t *testing.T, kRaw, npRaw uint8, seed, errs []byte) {
		k := 1 + int(kRaw)%100
		np := 1 + int(npRaw)%8
		c, err := New(k, np)
		if err != nil {
			return
		}
		data := make([]byte, k)
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)]
			}
		}
		parity := make([]byte, np)
		c.Encode(data, parity)
		// errs drives the injected pattern as (position, magnitude)
		// pairs — possibly far more than t of them.
		for i := 0; i+1 < len(errs); i += 2 {
			p := int(errs[i]) % (k + np)
			m := errs[i+1]
			if p < k {
				data[p] ^= m
			} else {
				parity[p-k] ^= m
			}
		}
		sv := make([]byte, np)
		sr := make([]byte, np)
		if zv, zr := c.syndromes(data, parity, sv), c.syndromesRef(data, parity, sr); zv != zr {
			t.Fatalf("allZero: vectored %v != ref %v", zv, zr)
		}
		for j := range sv {
			if sv[j] != sr[j] {
				t.Fatalf("S_%d: vectored %#x != ref %#x", j, sv[j], sr[j])
			}
		}
		if got, want := c.Verify(data, parity), c.VerifyReference(data, parity); got != want {
			t.Fatalf("Verify %v != VerifyReference %v", got, want)
		}
		res := c.Decode(data, parity)
		switch res.Status {
		case StatusClean:
			if !c.VerifyReference(data, parity) {
				t.Fatal("StatusClean but reference verify fails")
			}
		case StatusCorrected:
			if res.Corrected < 1 || res.Corrected > c.T() {
				t.Fatalf("corrected %d outside [1, t=%d]", res.Corrected, c.T())
			}
			if !c.VerifyReference(data, parity) {
				t.Fatal("StatusCorrected but corrected word is not a codeword")
			}
		case StatusUncorrectable:
			// Word must be left unusable-but-intact; nothing to assert
			// beyond not panicking.
		}

		ways := 1 + int(npRaw>>3)%5
		il, err := NewInterleaved(k*ways+int(kRaw)%ways, ways, np)
		if err != nil {
			return
		}
		wire := make([]byte, il.DataLen()+il.ParityLen())
		for i := range wire[:il.DataLen()] {
			if len(seed) > 0 {
				wire[i] = seed[i%len(seed)]
			}
		}
		ild, ilp := wire[:il.DataLen()], wire[il.DataLen():]
		il.Encode(ild, ilp)
		for i := 0; i+1 < len(errs); i += 2 {
			// Scale by ways so small offsets reach every way's
			// symbols, and stagger by pair so patterns pile up
			// within one way as well as spread across them.
			wire[(int(errs[i])*ways+(i/2)%ways)%len(wire)] ^= errs[i+1]
		}
		checkInterleavedDecode(t, il, ild, ilp)
	})
}
