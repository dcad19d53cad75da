package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// interleavedGeometries covers the packed CXL geometry (3 ways, 2 parity)
// at every data-length residue and the other geometries, which must fall
// back to the deinterleaving reference.
var interleavedGeometries = []struct{ total, ways, np int }{
	{250, 3, 2}, {251, 3, 2}, {7, 3, 2}, {3, 3, 2}, {64, 1, 2},
	{100, 2, 4}, {77, 4, 3}, {90, 3, 8}, {40, 3, 1}, {60, 3, 10},
}

// TestEncodePackedMatchesReference pins the packed interleaved encoder to
// the deinterleaving byte-level reference on random words, and checks
// every encoding is a codeword on the reference syndrome loop.
func TestEncodePackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range interleavedGeometries {
		il := MustNewInterleaved(g.total, g.ways, g.np)
		data := make([]byte, g.total)
		got := make([]byte, il.ParityLen())
		want := make([]byte, il.ParityLen())
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			il.Encode(data, got)
			il.EncodeReference(data, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v: Encode %x, reference %x", g, got, want)
			}
			if !il.VerifyReference(data, got) {
				t.Fatalf("%+v: encoding is not a codeword", g)
			}
		}
	}
}

// TestInterleavedDecodeMatchesReference drives random error patterns
// through the in-place interleaved decoder and the deinterleaving
// reference, requiring identical status, corrected count and bytes — and
// untouched inputs whenever the flit is uncorrectable.
func TestInterleavedDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, g := range interleavedGeometries {
		il := MustNewInterleaved(g.total, g.ways, g.np)
		data := make([]byte, g.total)
		parity := make([]byte, il.ParityLen())
		for trial := 0; trial < 300; trial++ {
			rng.Read(data)
			il.Encode(data, parity)
			corrupt(rng, data, parity, rng.Intn(g.ways*(g.np/2+1)+1))
			checkInterleavedDecode(t, il, data, parity)
		}
	}
}

// checkInterleavedDecode decodes copies of data||parity with Decode and
// with the deinterleaving reference and fails on any disagreement.
func checkInterleavedDecode(t *testing.T, il *Interleaved, data, parity []byte) {
	t.Helper()
	d, p := bytes.Clone(data), bytes.Clone(parity)
	rd, rp := bytes.Clone(data), bytes.Clone(parity)
	res := il.Decode(d, p)
	ref := il.Clone().decodeRef(rd, rp)
	if res != ref {
		t.Fatalf("total=%d ways=%d np=%d: Decode %+v, reference %+v", il.total, il.ways, il.nparity, res, ref)
	}
	if !bytes.Equal(d, rd) || !bytes.Equal(p, rp) {
		t.Fatalf("total=%d ways=%d np=%d: decoded bytes differ from reference (%v)", il.total, il.ways, il.nparity, res.Status)
	}
	if res.Status == StatusUncorrectable && (!bytes.Equal(d, data) || !bytes.Equal(p, parity)) {
		t.Fatalf("total=%d ways=%d np=%d: uncorrectable decode mutated its inputs", il.total, il.ways, il.nparity)
	}
	if got, want := il.Verify(data, parity), il.VerifyReference(data, parity); got != want {
		t.Fatalf("total=%d ways=%d np=%d: Verify %v, reference %v", il.total, il.ways, il.nparity, got, want)
	}
}

// TestInterleavedAllocFree: encode, verify and clean or single-symbol
// decode stay allocation-free on the flit geometry.
func TestInterleavedAllocFree(t *testing.T) {
	il := MustNewInterleaved(250, 3, 2)
	data := make([]byte, 250)
	parity := make([]byte, 6)
	if n := testing.AllocsPerRun(100, func() { il.Encode(data, parity) }); n != 0 {
		t.Errorf("Encode allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { il.Verify(data, parity) }); n != 0 {
		t.Errorf("Verify allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		data[100] ^= 0x5A
		il.Decode(data, parity)
	}); n != 0 {
		t.Errorf("Decode allocates %v per run", n)
	}
}

// FuzzEncode checks Interleaved.Encode against the deinterleaving
// byte-loop reference for nparity 1-10 and ways 1-5, so both the packed
// CXL geometry and the fallback dispatch are pinned. The CI kernel leg
// replays the committed corpus under both the default and purego builds.
func FuzzEncode(f *testing.F) {
	f.Add(uint8(250), uint8(2), uint8(3), []byte{})
	f.Add(uint8(250), uint8(2), uint8(3), []byte{0xFF, 0x00, 0x5A})
	f.Add(uint8(83), uint8(8), uint8(1), []byte{1, 2, 3, 4, 5})
	f.Add(uint8(17), uint8(9), uint8(5), []byte{7})
	f.Add(uint8(4), uint8(0), uint8(4), []byte{0x80})
	f.Fuzz(func(t *testing.T, totalRaw, npRaw, waysRaw uint8, seed []byte) {
		np := 1 + int(npRaw)%10
		ways := 1 + int(waysRaw)%5
		total := ways + int(totalRaw)
		data := make([]byte, total)
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)] ^ byte(i*7)
			}
		}
		il, err := NewInterleaved(total, ways, np)
		if err != nil {
			return
		}
		got, want := make([]byte, il.ParityLen()), make([]byte, il.ParityLen())
		il.Encode(data, got)
		il.EncodeReference(data, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("total=%d ways=%d np=%d: Encode %x, reference %x", total, ways, np, got, want)
		}
		if !il.VerifyReference(data, got) {
			t.Fatalf("total=%d ways=%d np=%d: encoding is not a codeword", total, ways, np)
		}
	})
}
