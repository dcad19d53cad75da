package link

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

// offerPayload is the full payload an offer filler writes for tag: the
// tag, then a tag-derived byte pattern across the whole payload.
func offerPayload(tag uint64) [flit.PayloadSize]byte {
	var p [flit.PayloadSize]byte
	binary.BigEndian.PutUint64(p[:], tag)
	for i := 8; i < len(p); i++ {
		p[i] = byte(tag*31 + uint64(i))
	}
	return p
}

// TestOfferSubmitFIFO interleaves Submits and Offers on one transmitter:
// payloads reach the wire in queue order with the bytes each form
// promises (Submit zero-pads its copy; a filler writes payload i of its
// run into a zeroed buffer exactly once, in order), Queued() counts
// every payload not yet sent, and go-back-N replays resend the stored
// bytes rather than calling the filler again.
func TestOfferSubmitFIFO(t *testing.T) {
	const warm = 64
	h := newHarness(t, ProtocolRXL, nil)
	h.ab.FaultHook = dropNthData(warm + 4) // force a replay across an offer run
	var got [][flit.PayloadSize]byte
	h.b.Deliver = func(p []byte) { got = append(got, [flit.PayloadSize]byte(p)) }

	// Send full all-ones payloads first, so the replay entries the
	// offers reuse carry stale bytes a filler must not see.
	dirty := bytes.Repeat([]byte{0xff}, flit.PayloadSize)
	for i := 0; i < warm; i++ {
		h.a.Submit(dirty)
	}
	h.eng.Run()
	if len(got) != warm {
		t.Fatalf("warm-up delivered %d of %d", len(got), warm)
	}
	got = got[:0]

	var want [][flit.PayloadSize]byte
	submit := func(tag uint64) {
		h.a.Submit(tagged(tag))
		var p [flit.PayloadSize]byte
		copy(p[:], tagged(tag))
		want = append(want, p)
	}
	var calls []uint64
	offer := func(base uint64, n int) {
		h.a.Offer(n, func(i int, dst []byte) {
			if len(dst) != flit.PayloadSize || !bytes.Equal(dst, make([]byte, flit.PayloadSize)) {
				t.Errorf("filler for payload %d got a %dB buffer that is not zeroed", i, len(dst))
			}
			calls = append(calls, base+uint64(i))
			p := offerPayload(base + uint64(i))
			copy(dst, p[:])
		})
		for i := 0; i < n; i++ {
			want = append(want, offerPayload(base+uint64(i)))
		}
	}

	steps := []struct {
		do     func()
		queued int
	}{
		{func() { submit(0) }, 1},
		{func() { offer(1, 5) }, 6},
		{func() { submit(6) }, 7},
		{func() { offer(99, 0) }, 7}, // an empty run queues nothing
		{func() { offer(7, 3) }, 10},
		{func() { submit(10) }, 11},
	}
	for i, s := range steps {
		s.do()
		if q := h.a.Queued(); q != s.queued {
			t.Fatalf("step %d: Queued() = %d, want %d", i, q, s.queued)
		}
	}
	// Partway through, every payload is either sent or still queued.
	h.eng.RunUntil(h.eng.Now() + 5*sim.Nanosecond)
	if sent, q := h.a.NextSeq()-warm, h.a.Queued(); sent == 0 || int(sent)+q != 11 {
		t.Fatalf("mid-run: %d sent + %d queued, want 11 with some sent", sent, q)
	}
	h.eng.Run()

	if h.a.Queued() != 0 || h.a.Stats.Retransmissions == 0 {
		t.Fatalf("Queued() = %d, retransmissions = %d; want a drained queue and a replay", h.a.Queued(), h.a.Stats.Retransmissions)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: payload bytes differ (tag %d, want tag %d)",
				i, binary.BigEndian.Uint64(got[i][:]), binary.BigEndian.Uint64(want[i][:]))
		}
	}
	wantCalls := []uint64{1, 2, 3, 4, 5, 7, 8, 9}
	if len(calls) != len(wantCalls) {
		t.Fatalf("filler calls %v, want %v", calls, wantCalls)
	}
	for i := range calls {
		if calls[i] != wantCalls[i] {
			t.Fatalf("filler calls %v, want %v", calls, wantCalls)
		}
	}
}

// TestOfferDoesNotAllocate: queuing a run costs no allocation however
// long it is — no payload is built until it is first sent.
func TestOfferDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	a := NewPeer("a", eng, DefaultConfig(ProtocolRXL))
	b := NewPeer("b", eng, DefaultConfig(ProtocolRXL))
	ConnectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)
	fill := func(i int, dst []byte) { dst[0] = byte(i) }
	a.sendQ = make([]offer, 0, 128) // room for every run below
	if allocs := testing.AllocsPerRun(100, func() { a.Offer(1_000_000, fill) }); allocs != 0 {
		t.Fatalf("Offer allocated %.1f times per call", allocs)
	}
	if q := a.Queued(); q != 101*1_000_000 {
		t.Fatalf("Queued() = %d after 101 runs of 1e6", q)
	}
}
