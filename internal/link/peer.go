package link

import (
	"fmt"
	"sync"

	"repro/internal/flit"
	"repro/internal/headq"
	"repro/internal/rs"
	"repro/internal/sim"
)

// replayEntry holds one unacknowledged data flit in the transmitter's
// replay ring.
type replayEntry struct {
	seq      uint64 // absolute sequence number
	payload  [flit.PayloadSize]byte
	lastSent sim.Time
}

// entryPool recycles replay entries; every data flit allocates one
// otherwise, which dominates steady-state allocations once flit images
// are pooled.
var entryPool = sync.Pool{New: func() interface{} { return new(replayEntry) }}

// Peer is one end of a duplex link-layer connection: a transmitter with a
// go-back-N replay buffer and a receiver with sequence validation per the
// configured protocol. Wire both directions with Attach; hand arriving
// flits to Receive (directly, or through switches).
//
// Peers are driven entirely by the simulation engine and are not safe for
// concurrent use.
type Peer struct {
	Name string
	Eng  *sim.Engine
	Cfg  Config

	// Deliver receives each validated payload in delivery order. The
	// slice aliases the flit; copy anything retained beyond the call.
	Deliver func(payload []byte)

	out *Wire
	fec *rs.Interleaved

	// pumpResume is the pump wakeup callback, built once so the per-flit
	// schedule does not allocate a closure.
	pumpResume func()

	// Transmit state. Invariant: nextSeq == ackedUpTo + len(replay);
	// replay[i].seq == ackedUpTo + i.
	nextSeq       uint64
	ackedUpTo     uint64 // all sequence numbers below this are acknowledged
	replay        []*replayEntry
	cursor        int     // next replay index to (re)transmit; == len(replay) when drained
	sendQ         []offer // pending offers from sendHead on
	sendHead      int     // consumed prefix of sendQ; array reused once drained
	queued        int     // payloads not yet taken from sendQ
	pumpScheduled bool
	timerArmed    bool
	nakToSend     bool
	ackToSend     bool
	srQueue       []uint64 // selective repeat: sequences to retransmit individually

	// Receive state. verified is the watermark: every sequence number
	// below it passed an explicit (or ISN) check. eseq is the next
	// expected sequence number; under baseline CXL it can run ahead of
	// verified when AckNum-carrying flits are forwarded unchecked.
	eseq              uint64
	verified          uint64
	deliveredSinceAck int
	ackPending        bool
	ackTimerArmed     bool
	nakOutstanding    bool
	lastNakAt         sim.Time

	// Selective repeat receive state: out-of-order verified payloads held
	// until the gap fills, and the single-NAK cooldown.
	reorder     map[uint64]*[flit.PayloadSize]byte
	srNakToSend bool
	srNakFor    uint64
	srNakAt     sim.Time

	Stats Stats
}

// NewPeer constructs a peer. Call Attach before submitting traffic.
func NewPeer(name string, eng *sim.Engine, cfg Config) *Peer {
	cfg.sanitize()
	p := &Peer{Name: name, Eng: eng, Cfg: cfg, fec: flit.NewFEC()}
	p.pumpResume = func() {
		p.pumpScheduled = false
		if p.transmitOne() {
			p.pump()
		}
	}
	if cfg.Retry == SelectiveRepeat {
		p.reorder = make(map[uint64]*[flit.PayloadSize]byte)
	}
	return p
}

// Attach connects the peer's transmitter to its outbound wire.
func (p *Peer) Attach(w *Wire) { p.out = w }

// offer is one entry of the send queue: a run of n payloads, of which
// the first next have been taken. Payload i is written by fill(i, dst)
// when it is first transmitted; a Submit is a one-payload offer with
// fill == nil that carries its own zero-padded copy in data.
type offer struct {
	fill    func(i int, dst []byte)
	next, n int
	data    [flit.PayloadSize]byte
}

// Submit queues a payload (at most flit.PayloadSize bytes; shorter payloads
// are zero-padded) for transmission. Payload bytes are copied.
func (p *Peer) Submit(payload []byte) {
	if len(payload) > flit.PayloadSize {
		panic(fmt.Sprintf("link: payload %dB exceeds %dB", len(payload), flit.PayloadSize))
	}
	o := p.enqueue(offer{n: 1})
	copy(o.data[:], payload)
	p.pump()
}

// Offer queues a run of n payloads behind everything already queued,
// without building any of them: payload i (0 <= i < n) is written by
// fill(i, dst) into a zeroed flit.PayloadSize-byte dst when it is first
// transmitted. fill is called exactly once per payload, in order, from
// inside the simulation; it must not retain dst. The wire sees the same
// bytes as n Submits of those payloads.
func (p *Peer) Offer(n int, fill func(i int, dst []byte)) {
	if fill == nil {
		panic("link: Offer needs a fill function")
	}
	if n <= 0 {
		return
	}
	p.enqueue(offer{fill: fill, n: n})
	p.pump()
}

// enqueue appends o to the send queue and returns the queued copy.
func (p *Peer) enqueue(o offer) *offer {
	p.sendQ, p.sendHead = headq.Compact(p.sendQ, p.sendHead)
	p.sendQ = append(p.sendQ, o)
	p.queued += o.n
	return &p.sendQ[len(p.sendQ)-1]
}

// takeNext writes the next queued payload into dst and dequeues it.
func (p *Peer) takeNext(dst *[flit.PayloadSize]byte) {
	o := &p.sendQ[p.sendHead]
	if o.fill == nil {
		*dst = o.data
	} else {
		*dst = [flit.PayloadSize]byte{}
		o.fill(o.next, dst[:])
	}
	p.queued--
	if o.next++; o.next == o.n {
		o.fill = nil // release the filler's captures to the GC
		p.sendHead++
	}
}

// Queued returns the number of payloads waiting behind the replay window.
func (p *Peer) Queued() int { return p.queued }

// Outstanding returns the number of sent-but-unacknowledged flits.
func (p *Peer) Outstanding() int { return len(p.replay) }

// NextSeq exposes the transmitter's next sequence number (for tests and
// experiment orchestration).
func (p *Peer) NextSeq() uint64 { return p.nextSeq }

// ExpectedSeq exposes the receiver's next expected sequence number.
func (p *Peer) ExpectedSeq() uint64 { return p.eseq }

// hasWork reports whether the transmitter has anything to put on the wire.
func (p *Peer) hasWork() bool {
	return p.nakToSend || p.srNakToSend || p.ackToSend ||
		len(p.srQueue) > 0 || p.cursor < len(p.replay) ||
		(p.queued > 0 && len(p.replay) < p.Cfg.ReplayBufferSize)
}

// pump schedules the next transmission at the moment the wire frees up.
// It is idempotent: one transmission is in flight per peer at a time.
func (p *Peer) pump() {
	if p.pumpScheduled || !p.hasWork() {
		return
	}
	p.pumpScheduled = true
	p.Eng.At(p.out.FreeAt(), p.pumpResume)
}

// transmitOne sends the highest-priority pending item: NAK, then replay,
// then standalone ACK, then new data. It returns true if a flit was sent.
func (p *Peer) transmitOne() bool {
	switch {
	case p.nakToSend:
		p.nakToSend = false
		p.sendControl(flit.TypeNak, flit.Header{
			FSN: wireSeq(p.verified), Cmd: flit.CmdNakGoBackN, Type: flit.TypeNak,
		})
		p.Stats.NakFlitsSent++
		return true

	case p.srNakToSend:
		p.srNakToSend = false
		p.sendControl(flit.TypeNak, flit.Header{
			FSN: wireSeq(p.srNakFor), Cmd: flit.CmdNakSingle, Type: flit.TypeNak,
		})
		p.Stats.SingleNaksSent++
		return true

	case len(p.srQueue) > 0 && p.transmitSingleRetry():
		return true

	case p.cursor < len(p.replay):
		e := p.replay[p.cursor]
		p.cursor++
		p.sendData(e, true)
		return true

	case p.ackToSend:
		p.ackToSend = false
		p.ackPending = false
		p.sendControl(flit.TypeAck, flit.Header{
			FSN: wireSeq(p.verified - 1), Cmd: flit.CmdAck, Type: flit.TypeAck,
		})
		p.Stats.AckFlitsSent++
		return true

	case p.queued > 0 && len(p.replay) < p.Cfg.ReplayBufferSize:
		e := entryPool.Get().(*replayEntry)
		e.seq, e.lastSent = p.nextSeq, 0
		p.takeNext(&e.payload)
		p.nextSeq++
		p.replay = append(p.replay, e)
		p.cursor = len(p.replay)
		p.Stats.DataFlitsSent++
		p.sendData(e, false)
		return true
	}
	return false
}

// sendControl seals and transmits a standalone control flit. Control flits
// sit outside the sequence stream and always use a plain CRC; their loss is
// recovered by the retransmission and ACK timers.
func (p *Peer) sendControl(_ flit.Type, h flit.Header) {
	f := flit.Get()
	f.SetHeader(h)
	p.stampRoute(f)
	if p.Cfg.FastPath {
		f.DeferSealCXL()
	} else {
		f.SealCXL(p.fec)
	}
	p.Stats.FlitsSent++
	p.out.Send(f)
}

// stampRoute writes the fabric routing tags when configured. The tags sit
// inside the CRC-covered payload region, so they are sealed along with the
// rest of the flit.
func (p *Peer) stampRoute(f *flit.Flit) {
	if p.Cfg.StampRoute {
		f.Payload()[flit.RouteOffset] = p.Cfg.RouteTag
		f.Payload()[flit.SrcRouteOffset] = p.Cfg.SrcTag
	}
}

// sendData builds, seals and transmits the flit for a replay entry,
// applying the protocol's header/CRC semantics and consuming a pending
// piggyback acknowledgment if the protocol allows one.
func (p *Peer) sendData(e *replayEntry, isRetransmit bool) {
	f := flit.Get()
	copy(f.Payload(), e.payload[:])
	p.stampRoute(f)

	// Retransmissions always take the byte-level slow path: they are rare
	// by construction (one per error event) and sit on the protocol's
	// recovery edge, where the reference semantics must hold unmodified.
	fast := p.Cfg.FastPath && !isRetransmit

	h := flit.Header{Type: flit.TypeData, Cmd: flit.CmdSeq}
	// Selective-repeat retransmissions always carry their explicit FSN:
	// the receiver must match them against the gap it is holding open.
	piggyback := p.ackPending && p.Cfg.Protocol != ProtocolCXLNoPiggyback &&
		!(isRetransmit && p.Cfg.Retry == SelectiveRepeat)
	if piggyback {
		h.Cmd = flit.CmdAck
		h.FSN = wireSeq(p.verified - 1)
		p.ackPending = false
		p.ackToSend = false
		p.Stats.PiggybackedAcks++
	}

	switch p.Cfg.Protocol {
	case ProtocolRXL:
		// FSN carries only the AckNum (or zero); the sequence number
		// travels inside the CRC.
		f.SetHeader(h)
		if fast {
			f.DeferSealRXL(wireSeq(e.seq))
		} else {
			f.SealRXL(wireSeq(e.seq), p.fec)
		}
	default:
		// Baseline CXL: FSN is the explicit sequence number unless this
		// flit was chosen to carry the AckNum — the blind spot.
		if !piggyback {
			h.FSN = wireSeq(e.seq)
		}
		f.SetHeader(h)
		if fast {
			f.DeferSealCXL()
		} else {
			f.SealCXL(p.fec)
		}
	}

	if isRetransmit {
		p.Stats.Retransmissions++
	}
	e.lastSent = p.Eng.Now()
	p.Stats.FlitsSent++
	p.out.Send(f)
	p.armRetryTimer()
}

// armRetryTimer schedules the transmitter-side go-back-N backstop against
// lost ACK/NAK flits.
func (p *Peer) armRetryTimer() {
	if p.timerArmed || len(p.replay) == 0 {
		return
	}
	p.timerArmed = true
	deadline := p.replay[0].lastSent + p.Cfg.RetryTimeout
	d := deadline - p.Eng.Now()
	if d < 0 {
		d = 0
	}
	p.Eng.Schedule(d, func() {
		p.timerArmed = false
		if len(p.replay) == 0 {
			return
		}
		if p.Eng.Now()-p.replay[0].lastSent >= p.Cfg.RetryTimeout {
			p.Stats.TimeoutRetries++
			p.cursor = 0
			// Stamp the head now: the replay is *scheduled* even if the
			// wire is momentarily busy, so the timer must back off a full
			// period rather than re-fire with zero delay until the wire
			// frees (which would live-lock the event loop at one
			// timestamp on busy shared wires).
			p.replay[0].lastSent = p.Eng.Now()
		}
		p.pump()
		p.armRetryTimer()
	})
}

// Receive processes a flit arriving from the wire (after any switches).
// The peer is the flit's terminal consumer: pooled flits are recycled when
// processing completes (payloads handed to Deliver alias the image and
// must be copied if retained, per the Deliver contract).
func (p *Peer) Receive(f *flit.Flit) {
	p.receive(f)
	flit.Release(f)
}

// receive is the Receive body. On a clean flit every integrity operation
// below — FEC decode, CRC / ISN check — short-circuits in O(1) inside the
// flit layer, so the clean path runs no byte-level work at all.
func (p *Peer) receive(f *flit.Flit) {
	p.Stats.FlitsReceived++

	res := f.DecodeFEC(p.fec)
	switch res.Status {
	case rs.StatusUncorrectable:
		// The endpoint knows this flit is bad but not what it was:
		// request a replay from the verified watermark.
		p.Stats.FecUncorrectable++
		p.requestNak()
		return
	case rs.StatusCorrected:
		p.Stats.FecCorrectedFlits++
		p.Stats.FecCorrectedSymbols += uint64(res.Corrected)
	}

	h := f.Header()
	switch h.Type {
	case flit.TypeNak:
		switch {
		case !f.CheckCRC():
			p.Stats.ControlCrcErrors++
		case h.Cmd == flit.CmdNakSingle:
			p.onNakSingle(h.FSN)
		default:
			p.onNak(h.FSN)
		}
	case flit.TypeAck:
		if f.CheckCRC() {
			p.Stats.AcksReceived++
			p.onAck(h.FSN)
		} else {
			p.Stats.ControlCrcErrors++
		}
	case flit.TypeData:
		switch p.Cfg.Protocol {
		case ProtocolRXL:
			p.rxDataRXL(f, h)
		default:
			p.rxDataCXL(f, h)
		}
	}
}

// rxDataCXL implements the baseline receiver (Section 4.1): explicit
// sequence checks when the FSN carries a sequence number, and unverified
// forwarding when it carries an AckNum.
func (p *Peer) rxDataCXL(f *flit.Flit, h flit.Header) {
	if !f.CheckCRC() {
		p.Stats.CrcErrors++
		p.requestNak()
		return
	}
	switch h.Cmd {
	case flit.CmdSeq:
		abs := absFromWire(h.FSN, p.eseq)
		switch {
		case abs == p.eseq:
			p.deliverPayload(f)
			p.eseq++
			p.advanceVerified(p.eseq)
			p.nakOutstanding = false
			if p.Cfg.Retry == SelectiveRepeat {
				p.drainReorder()
			}
		case abs > p.eseq:
			// A preceding flit is missing. Under selective repeat, hold
			// this verified flit and request exactly the missing one;
			// otherwise (or on reassembly overflow) go-back-N.
			p.Stats.GapsDetected++
			if p.Cfg.Retry == SelectiveRepeat && p.bufferOutOfOrder(abs, f) {
				p.requestSingleNak()
			} else {
				p.requestNak()
			}
		default:
			p.Stats.DuplicatesDropped++
			// A replay below eseq can only mean the region was consumed
			// unverified (AckNum-carrying flits). The explicit number
			// confirms stream alignment through abs, so raise the
			// verified watermark — otherwise acknowledgments would
			// stall at the unverified region and wedge the transmitter.
			if abs >= p.verified {
				p.advanceVerified(abs + 1)
			}
			// Any duplicate means the transmitter is replaying flits we
			// already hold — its window is stalled on an acknowledgment
			// that was coalesced away or lost. Acknowledge promptly so
			// the replay converges instead of looping on the timer.
			p.scheduleAck()
		}

	case flit.CmdAck:
		p.onAck(h.FSN)
		if p.nakOutstanding {
			// Mid-replay every unverifiable flit is dropped; the
			// go-back-N stream will resend its payload.
			p.Stats.UnverifiedDiscarded++
			return
		}
		// THE CXL BLIND SPOT: this flit's sequence number was displaced
		// by the AckNum, so the receiver cannot verify ordering. It
		// forwards the payload and advances its expectation — even if a
		// preceding flit was silently dropped by a switch (Fig. 4).
		p.deliverPayload(f)
		p.Stats.UnverifiedDelivered++
		p.eseq++
	}
}

// rxDataRXL implements the ISN receiver (Section 5): a single CRC check
// with the expected sequence number folded in validates payload integrity
// and sequence position at once.
func (p *Peer) rxDataRXL(f *flit.Flit, h flit.Header) {
	if !f.CheckCRCISN(wireSeq(p.eseq)) {
		// Corruption, drop, or reorder — indistinguishable and all
		// handled identically: go-back-N from the verified watermark.
		p.Stats.CrcErrors++
		p.requestNak()
		return
	}
	if h.Cmd == flit.CmdAck {
		// The header is covered by the just-validated CRC, so the
		// piggybacked AckNum is trustworthy — RXL keeps piggybacking
		// without giving up sequence protection.
		p.onAck(h.FSN)
	}
	p.deliverPayload(f)
	p.eseq++
	p.advanceVerified(p.eseq)
	p.nakOutstanding = false
}

// requestNak schedules a NAK carrying the retry-from watermark, with a
// cooldown so replay storms don't amplify.
func (p *Peer) requestNak() {
	now := p.Eng.Now()
	if p.nakOutstanding && now-p.lastNakAt < p.Cfg.RetryTimeout/2 {
		return
	}
	p.nakOutstanding = true
	p.lastNakAt = now
	// Roll the expectation back to the verified watermark so replayed
	// flits are accepted (under RXL eseq never ran ahead of it).
	p.eseq = p.verified
	p.nakToSend = true
	p.pump()
}

// deliverPayload hands the flit payload to the upper layer.
func (p *Peer) deliverPayload(f *flit.Flit) {
	p.Stats.Delivered++
	if p.Deliver != nil {
		p.Deliver(f.Payload())
	}
}

// advanceVerified raises the verified watermark to `to` and runs ACK
// coalescing: one acknowledgment per CoalesceCount verified flits
// (p_coalescing = 1/CoalesceCount).
func (p *Peer) advanceVerified(to uint64) {
	if to <= p.verified {
		return
	}
	p.deliveredSinceAck += int(to - p.verified)
	p.verified = to
	if p.deliveredSinceAck >= p.Cfg.CoalesceCount {
		p.deliveredSinceAck = 0
		p.scheduleAck()
	}
}

// scheduleAck marks an acknowledgment as pending and arranges for it to go
// out: immediately as a standalone flit when piggybacking is disabled,
// otherwise piggybacked on the next reverse data flit with the ACK timer as
// the backstop.
func (p *Peer) scheduleAck() {
	p.ackPending = true
	if p.Cfg.Protocol == ProtocolCXLNoPiggyback {
		p.ackToSend = true
	} else {
		p.armAckTimer()
	}
	p.pump()
}

// armAckTimer bounds how long a pending acknowledgment waits for a reverse
// data flit to piggyback on before a standalone ACK is sent.
func (p *Peer) armAckTimer() {
	if p.ackTimerArmed {
		return
	}
	p.ackTimerArmed = true
	p.Eng.Schedule(p.Cfg.AckTimeout, func() {
		p.ackTimerArmed = false
		if p.ackPending {
			p.ackToSend = true
			p.pump()
		}
	})
}

// onAck frees acknowledged replay entries. fsn is the last verified
// sequence number at the remote receiver, in wire form.
func (p *Peer) onAck(fsn uint16) {
	if len(p.replay) == 0 {
		return
	}
	ackAbs := absFromWire(fsn, p.nextSeq-1)
	if ackAbs >= p.nextSeq {
		ackAbs = p.nextSeq - 1
	}
	p.popAcked(ackAbs + 1)
	p.pump()
}

// onNak processes a go-back-N request. fsn is the remote retry-from
// sequence number (the verified watermark) in wire form: everything below
// it is implicitly acknowledged, everything at or above it is replayed.
func (p *Peer) onNak(fsn uint16) {
	p.Stats.NaksReceived++
	retry := absFromWire(fsn, p.ackedUpTo)
	if retry < p.ackedUpTo {
		retry = p.ackedUpTo
	}
	if retry > p.nextSeq {
		retry = p.nextSeq
	}
	p.popAcked(retry)
	if len(p.replay) > 0 {
		p.cursor = 0
		p.Stats.GoBackNRounds++
	}
	p.pump()
}

// popAcked discards replay entries with sequence numbers below watermark,
// returning them to the pool.
func (p *Peer) popAcked(watermark uint64) {
	n := 0
	for n < len(p.replay) && p.replay[n].seq < watermark {
		entryPool.Put(p.replay[n])
		n++
	}
	if n == 0 {
		return
	}
	p.replay = p.replay[n:]
	p.ackedUpTo += uint64(n)
	p.cursor -= n
	if p.cursor < 0 {
		p.cursor = 0
	}
}

// ConnectDirect wires two peers back-to-back (the paper's "direct
// connection" topology) with the given per-direction serialization and
// propagation delays, returning the two wires (a->b, b->a) for channel and
// fault-hook attachment.
func ConnectDirect(eng *sim.Engine, a, b *Peer, ser, prop sim.Time) (ab, ba *Wire) {
	ab = NewWire(eng, ser, prop, b.Receive)
	ba = NewWire(eng, ser, prop, a.Receive)
	a.Attach(ab)
	b.Attach(ba)
	return ab, ba
}
