package core

import (
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/trace"
)

// payloadIntactRef is PayloadIntact's original form: materialize the whole
// expected payload, then compare. Kept as the oracle for the in-place
// comparison.
func payloadIntactRef(p []byte) bool {
	want := make([]byte, len(p))
	payloadBody(trace.TagOf(p), want)
	for i := 8; i < sealedLimit(len(p)); i++ {
		if p[i] != want[i] {
			return false
		}
	}
	return true
}

// TestPayloadIntactMatchesReference pins the verdict of the in-place
// keystream comparison to the materializing reference on intact payloads
// and on payloads with a bit flipped anywhere — tag, keystream body, or
// the routing bytes the check ignores — at every payload size class.
func TestPayloadIntactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, size := range []int{8, 9, 64, flit.SrcRouteOffset, flit.SrcRouteOffset + 1, flit.PayloadSize} {
		for trial := 0; trial < 300; trial++ {
			tag := rng.Uint64()
			p := trace.TagPayload(tag, size)
			payloadBody(tag, p)
			if !PayloadIntact(p) || !payloadIntactRef(p) {
				t.Fatalf("size %d tag %#x: intact payload rejected", size, tag)
			}
			q := append([]byte(nil), p...)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				q[rng.Intn(size)] ^= 1 << rng.Intn(8)
			}
			if got, want := PayloadIntact(q), payloadIntactRef(q); got != want {
				t.Fatalf("size %d: corrupted verdict %v, reference %v", size, got, want)
			}
		}
	}
	p := SealedPayload(3)
	if n := testing.AllocsPerRun(100, func() { PayloadIntact(p) }); n != 0 {
		t.Errorf("PayloadIntact allocates %v per call", n)
	}
}
