package switchfab

import (
	"math/rand"
	"testing"

	"repro/internal/crc"
	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/sim"
)

// wantSealed fails unless f's FEC field is the encoding of its protected
// region and, under ModeCXL, its CRC field is the plain checksum of its
// header and payload — i.e. unless f is exactly what an egress re-encode
// (and CRC regeneration) would have produced.
func wantSealed(t *testing.T, mode Mode, f *flit.Flit, what string) {
	t.Helper()
	want := make([]byte, flit.FECSize)
	flit.NewFEC().Encode(f.Raw[:flit.ProtectedSize], want)
	if string(f.FECField()) != string(want) {
		t.Fatalf("%s %s: FEC field %x, re-encode gives %x", mode, what, f.FECField(), want)
	}
	if mode == ModeCXL {
		if got, want := f.CRCField(), crc.Checksum(f.Raw[:flit.HeaderSize+flit.PayloadSize]); got != want {
			t.Fatalf("%s %s: CRC field %#x, checksum %#x", mode, what, got, want)
		}
	}
}

// sealedFlit returns an eagerly sealed flit with a random payload, sealed
// the way mode's endpoints seal (plain CRC for CXL, ISN CRC for RXL).
func sealedFlit(rng *rand.Rand, mode Mode) *flit.Flit {
	f := &flit.Flit{}
	f.SetHeader(flit.Header{Type: flit.TypeData, FSN: uint16(rng.Intn(1 << 10))})
	rng.Read(f.Payload())
	if mode == ModeCXL {
		f.SealCXL(flit.NewFEC())
	} else {
		f.SealRXL(uint16(rng.Intn(1<<10)), flit.NewFEC())
	}
	return f
}

// TestEgressSkipsIdentityReencode pins the egress skip: a switch re-encodes
// the FEC only when its internal fault point touched the flit, so every
// other forwarded flit must already carry the parity a re-encode would
// write. Clean, deferred, burst-corrected (≤1 symbol per way) and
// multi-symbol (dropped, or miscorrected into another codeword) flits go
// through process in both modes.
func TestEgressSkipsIdentityReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, mode := range []Mode{ModeCXL, ModeRXL} {
		s := NewSwitch("s", sim.NewEngine(), mode, 0, nil)
		for trial := 0; trial < 3000; trial++ {
			f := sealedFlit(rng, mode)
			what := "clean"
			switch trial % 4 {
			case 1:
				// A burst of up to 3 wire bytes touches at most one
				// symbol per way anywhere, parity included.
				what = "burst"
				at := rng.Intn(flit.Size - 3)
				for i := 0; i < 1+rng.Intn(3); i++ {
					f.Raw[at+i] ^= byte(1 + rng.Intn(255))
				}
			case 2:
				// Two symbols of one way: detected or miscorrected.
				what = "multi"
				at := rng.Intn(flit.Size - 3)
				f.Raw[at] ^= byte(1 + rng.Intn(255))
				f.Raw[at+3] ^= byte(1 + rng.Intn(255))
			case 3:
				what = "deferred"
				if mode == ModeCXL {
					f.DeferSealCXL()
				} else {
					f.DeferSealRXL(uint16(trial) & flit.FSNMask)
				}
			}
			if !s.process(f) {
				continue
			}
			f.Materialize(s.fec)
			wantSealed(t, mode, f, what)
		}
		st := s.Stats
		if st.CorrectedFlits == 0 || st.DroppedUncorrectable == 0 {
			t.Fatalf("%s: corpus missed a path: %+v", mode, st)
		}
		if st.InternalCorruptions != 0 {
			t.Fatalf("%s: unexpected internal corruption: %+v", mode, st)
		}
	}
}

// TestEgressReencodesTouchedFlits: flits the internal fault point mutated
// (a hook or a probabilistic bit flip) are still re-encoded on egress, so
// the corruption reaches the next hop inside a valid FEC codeword — the
// Section 6.3 hazard the simulator must keep reproducing.
func TestEgressReencodesTouchedFlits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, mode := range []Mode{ModeCXL, ModeRXL} {
		hooked := NewSwitch("hook", sim.NewEngine(), mode, 0, nil)
		hooked.InternalHook = func(f *flit.Flit) bool {
			f.Payload()[rng.Intn(flit.PayloadSize)] ^= 0x10
			return true
		}
		flipped := NewSwitch("flip", sim.NewEngine(), mode, 0, nil)
		flipped.SeedInternalFaults(1, phy.NewRNG(7))
		for _, s := range []*Switch{hooked, flipped} {
			for trial := 0; trial < 200; trial++ {
				f := sealedFlit(rng, mode)
				before := f.Raw
				if !s.process(f) {
					t.Fatalf("%s %s: clean flit dropped", mode, s.Name)
				}
				if f.Raw == before {
					t.Fatalf("%s %s: fault point left the image unchanged", mode, s.Name)
				}
				wantSealed(t, mode, f, s.Name)
			}
			if s.Stats.InternalCorruptions != 200 {
				t.Fatalf("%s %s: %d internal corruptions, want 200", mode, s.Name, s.Stats.InternalCorruptions)
			}
		}
	}
}
