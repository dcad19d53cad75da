package flit

import (
	"math/rand"
	"testing"

	"repro/internal/rs"
)

// TestCodingVerdictsIgnorePayload pins the property that lets the
// simulated payload filler change without moving a reported number: the
// RS FEC and the CRC-64/ISN are linear codes, so every decode and
// detection verdict depends only on the error pattern, never on the
// payload bytes. Two random payloads are sealed as RXL and as CXL flits
// and struck by the same error pattern; the decode result, the correction
// the decoder applied (output XOR input) and the CRC/ISN verdicts must
// agree. Patterns run well past the per-way correction radius t = 1, so
// uncorrectable words and miscorrections are both exercised.
func TestCodingVerdictsIgnorePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fec := NewFEC()
	var uncorrectable, miscorrected int
	for trial := 0; trial < 3000; trial++ {
		h := Header{FSN: uint16(rng.Intn(int(FSNMask) + 1)), Cmd: CmdAck, Type: TypeData}
		seq := uint16(rng.Intn(int(FSNMask) + 1))
		var pattern [Size]byte
		switch trial % 3 {
		case 0: // scattered bit flips
			for n := 1 + rng.Intn(12); n > 0; n-- {
				pattern[rng.Intn(Size)] ^= 1 << rng.Intn(8)
			}
		case 1: // whole-symbol errors
			for n := 1 + rng.Intn(6); n > 0; n-- {
				pattern[rng.Intn(Size)] ^= byte(1 + rng.Intn(255))
			}
		default: // a burst of adjacent symbols, several per interleave way
			start, n := rng.Intn(Size-8), 2+rng.Intn(7)
			for i := start; i < start+n; i++ {
				pattern[i] ^= byte(1 + rng.Intn(255))
			}
		}
		for _, rxl := range []bool{false, true} {
			var results [2]rs.Result
			var fixes [2][Size]byte
			var crcOK, isnOK, isnNext [2]bool
			var wrong [2]bool
			for v := range results {
				var f Flit
				f.SetHeader(h)
				rng.Read(f.Payload())
				if rxl {
					f.SealRXL(seq, fec)
				} else {
					f.SealCXL(fec)
				}
				sealed := f.Raw
				for i := range f.Raw {
					f.Raw[i] ^= pattern[i]
				}
				struck := f.Raw
				results[v] = f.DecodeFEC(fec)
				for i := range f.Raw {
					fixes[v][i] = f.Raw[i] ^ struck[i]
				}
				wrong[v] = f.Raw != sealed
				crcOK[v] = f.CheckCRC()
				isnOK[v] = f.CheckCRCISN(seq)
				isnNext[v] = f.CheckCRCISN(seq + 1)
			}
			if results[0] != results[1] {
				t.Fatalf("trial %d rxl=%v: decode %+v vs %+v on the same pattern", trial, rxl, results[0], results[1])
			}
			if fixes[0] != fixes[1] {
				t.Fatalf("trial %d rxl=%v: decoder applied different corrections", trial, rxl)
			}
			if wrong[0] != wrong[1] {
				t.Fatalf("trial %d rxl=%v: decode repaired one payload but not the other", trial, rxl)
			}
			if crcOK[0] != crcOK[1] || isnOK[0] != isnOK[1] || isnNext[0] != isnNext[1] {
				t.Fatalf("trial %d rxl=%v: CRC/ISN verdicts differ across payloads", trial, rxl)
			}
			switch {
			case results[0].Status == rs.StatusUncorrectable:
				uncorrectable++
			case wrong[0]:
				miscorrected++
			}
		}
	}
	if uncorrectable == 0 || miscorrected == 0 {
		t.Fatalf("patterns too mild: %d uncorrectable, %d miscorrected words", uncorrectable, miscorrected)
	}
}
