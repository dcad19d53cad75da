package flit

import (
	"math/rand"
	"testing"

	"repro/internal/crc"
)

// TestSealReference pins the bytes a sealed flit carries against the
// portable reference kernels, independent of what Update/Verify dispatch
// to on this host: the CRC field must equal a slicing-by-16 checksum (with
// the ISN fold applied by hand for RXL seals), the FEC field must equal
// the byte-level reference encoder's parity, and the sealed image must be
// a valid FEC codeword under the byte-level reference syndrome loop. If
// the CLMUL, word-parallel or packed-encoder paths ever drifted, sealed
// wire bytes would change and this test would catch it at the flit layer.
func TestSealReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fec := NewFEC()
	for trial := 0; trial < 50; trial++ {
		f := &Flit{}
		f.SetHeader(Header{FSN: uint16(rng.Intn(1024)), Cmd: CmdSeq, Type: TypeData})
		rng.Read(f.Payload())
		seq := uint16(rng.Intn(1024))

		f.SealCXL(fec)
		if want := crc.UpdateSlicing16(0, f.crcInput()); f.CRCField() != want {
			t.Fatalf("trial %d: CXL CRC field %#x != reference %#x", trial, f.CRCField(), want)
		}
		if !fec.VerifyReference(f.protected(), f.FECField()) {
			t.Fatalf("trial %d: CXL seal is not a codeword under reference verify", trial)
		}
		wantFEC := make([]byte, FECSize)
		fec.EncodeReference(f.protected(), wantFEC)
		if string(f.FECField()) != string(wantFEC) {
			t.Fatalf("trial %d: CXL FEC field %x != reference %x", trial, f.FECField(), wantFEC)
		}

		f.SealRXL(seq, fec)
		folded := append([]byte(nil), f.crcInput()...)
		folded[len(folded)-2] ^= byte((seq & crc.SeqMask) >> 8)
		folded[len(folded)-1] ^= byte(seq & crc.SeqMask)
		if want := crc.UpdateSlicing16(0, folded); f.CRCField() != want {
			t.Fatalf("trial %d seq %d: RXL CRC field %#x != reference %#x", trial, seq, f.CRCField(), want)
		}
		if !fec.VerifyReference(f.protected(), f.FECField()) {
			t.Fatalf("trial %d: RXL seal is not a codeword under reference verify", trial)
		}
		fec.EncodeReference(f.protected(), wantFEC)
		if string(f.FECField()) != string(wantFEC) {
			t.Fatalf("trial %d: RXL FEC field %x != reference %x", trial, f.FECField(), wantFEC)
		}

		// A deferred seal, once materialized, must be byte-identical.
		g := &Flit{}
		g.Raw = f.Raw
		g.SetHeader(f.Header())
		g.DeferSealRXL(seq)
		g.Materialize(fec)
		if g.Raw != f.Raw {
			t.Fatalf("trial %d: materialized deferred seal differs from eager seal", trial)
		}
	}
}
