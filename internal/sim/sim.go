// Package sim is a small discrete-event simulation engine with picosecond
// resolution, used to drive the link-layer and fabric models. It provides a
// deterministic event queue (stable FIFO ordering among same-time events)
// and a Pipe primitive modeling a unidirectional wire with serialization
// and propagation delay — the substrate on which flits move.
//
// The engine is single-threaded by design: determinism matters more than
// parallel speedup for protocol-correctness experiments, and a 256B flit
// every 2 ns means a single core simulates hundreds of thousands of flits
// per second of wall time, ample for every experiment in the paper.
package sim

import (
	"math"

	"repro/internal/headq"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FlitTime is the serialization time of a 256B flit on a full-speed x16
// CXL 3.0 link (Section 7.2: "a ×16 link transmitting 256B flits every
// 2ns").
const FlitTime = 2 * Nanosecond

// key is an event's position in the strict dispatch order: time, then
// schedule order. seq is unique per engine, so keys are unique.
type key struct {
	at  Time
	seq uint64 // tie-break: schedule order
}

// before reports the strict (at, seq) ordering between keys.
func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// action is what an event runs: fn, or sink(arg) when fn is nil.
// Senders with a long-lived sink function (pipes) use the payload form to
// avoid a closure allocation per scheduled delivery.
type action struct {
	fn   func()
	sink func(interface{})
	arg  interface{}
}

func (a *action) dispatch() {
	if a.fn != nil {
		a.fn()
		return
	}
	a.sink(a.arg)
}

type event struct {
	key
	action
}

// heapKey is a heap entry: an event's key and the slab slot holding its
// action. It holds no pointers, so sifting moves plain words and pays no
// GC write barriers.
type heapKey struct {
	key
	slot int
}

// eventHeap is a hand-rolled binary min-heap on (at, seq). container/heap
// would box every event through interface{} on Push/Pop — one allocation
// per scheduled event — so the sift operations are written out instead.
// The heap orders pointer-free keys; the actions sit still in a slab
// whose vacated slots are reused through a free list, so the slab never
// outgrows the heap's peak size.
type eventHeap struct {
	keys []heapKey
	slab []action
	free []int // vacated slab slots
}

func (h *eventHeap) len() int { return len(h.keys) }

// head returns the key of the earliest event; the heap must be non-empty.
func (h *eventHeap) head() key { return h.keys[0].key }

func (h *eventHeap) push(ev event) {
	var slot int
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = ev.action
	} else {
		slot = len(h.slab)
		h.slab = append(h.slab, ev.action)
	}
	h.keys = append(h.keys, heapKey{ev.key, slot})
	q := h.keys
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent].key) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := h.keys
	slot := q[0].slot
	top := event{q[0].key, h.slab[slot]}
	h.slab[slot] = action{} // release references for GC
	h.free = append(h.free, slot)
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	h.keys = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child].key) {
			child = r
		}
		if !q[child].before(q[i].key) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
//
// The queue is a two-lane structure tuned for the simulator's dominant
// pattern — long stretches of near-monotone schedule times (every flit
// delivery and pump wakeup lands at or just under the previously
// scheduled tail). Those events live in a sorted ring dispatched by a
// bulk pump in O(1) per event, with pushes landing slightly below the
// tail accepted by bounded insertion; genuinely out-of-order schedules
// (scripted scenario events, deep reorders) fall back to a binary heap.
// Dispatch merges the two lanes under the strict (time, schedule-order)
// total order, so the hybrid is observationally identical to a single
// priority queue.
type Engine struct {
	now     Time
	events  eventHeap // out-of-order lane
	fifo    []event   // sorted lane: times non-decreasing from fifoPos
	fifoPos int       // index of the sorted lane's head
	seq     uint64
	stopped bool
	// Executed counts dispatched events, a cheap progress metric.
	Executed uint64
}

// NewEngine returns an engine at time 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay (>= 0) simulation time. Events scheduled for
// the same instant run in schedule order.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// ScheduleArg is Schedule for a long-lived sink function and a payload,
// avoiding the per-event closure allocation.
func (e *Engine) ScheduleArg(delay Time, sink func(interface{}), arg interface{}) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.AtArg(e.now+delay, sink, arg)
}

// At runs fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) {
	e.push(event{key{t, e.seq}, action{fn: fn}})
}

// AtArg runs sink(arg) at absolute time t (>= Now). Pipes use this form on
// the per-flit delivery path: sink is one stable function per pipe, so no
// closure is allocated per send.
func (e *Engine) AtArg(t Time, sink func(interface{}), arg interface{}) {
	e.push(event{key{t, e.seq}, action{sink: sink, arg: arg}})
}

func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	e.fifo, e.fifoPos = headq.Compact(e.fifo, e.fifoPos)
	n := len(e.fifo)
	if n == e.fifoPos || ev.at >= e.fifo[n-1].at {
		e.fifo = append(e.fifo, ev)
		return
	}
	// The new event lands below the sorted lane's tail. The dominant
	// patterns land *just* below it: pump wakeups scheduled a couple of
	// nanoseconds under in-flight deliveries, and stream events pushed
	// beneath a standing backstop timer (link retry, ACK timeout) parked
	// at the tail. Deflecting those to the heap would make every flit
	// delivery pay a sift, so the tail accepts them by bounded insertion:
	// scan back a few slots for the insertion point and shift the tail
	// right. Equal times insert after — the new event carries the largest
	// seq, preserving FIFO order. Past the window the order really is
	// mixed, and the event goes to the heap.
	lo := n - fifoInsertWindow
	if lo < e.fifoPos {
		lo = e.fifoPos
	}
	j := n
	for j > lo && ev.at < e.fifo[j-1].at {
		j--
	}
	if j > lo || j == e.fifoPos || ev.at >= e.fifo[j-1].at {
		e.fifo = append(e.fifo, event{})
		copy(e.fifo[j+1:], e.fifo[j:n])
		e.fifo[j] = ev
		return
	}
	e.events.push(ev)
}

// fifoInsertWindow bounds how far below the sorted lane's tail a push may
// insert. It needs to cover the few distinct schedule offsets live at
// once (pump wakeup, per-hop delivery, a standing timer or two); past
// that, heap order is genuinely cheaper than shifting.
const fifoInsertWindow = 8

// Stop makes the current Run/RunUntil/AdvanceTo/RunSpans call return after
// the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// maxTime is the unbounded dispatch horizon.
const maxTime = Time(math.MaxInt64)

// Run dispatches events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.run(maxTime) }

// RunUntil dispatches events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled at t are executed. It is AdvanceTo under
// its historical name.
func (e *Engine) RunUntil(t Time) { e.AdvanceTo(t) }

// AdvanceTo is the bulk-advance pump: it dispatches every event with a
// timestamp <= t in strict (time, schedule-order) order, then jumps the
// clock to exactly t. Stretches with no pending events are crossed in one
// assignment — the clock is driven by the schedule, not ticked — and runs
// of monotone events (the dominant pattern: flit deliveries and pump
// wakeups land at or after the previously scheduled tail) dispatch in a
// tight loop with no per-event lane merge.
func (e *Engine) AdvanceTo(t Time) {
	e.run(t)
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunSpans drains the queue like Run, advancing the clock in spans of at
// most `span` per pump iteration and jumping idle stretches directly to
// the next scheduled event. The dispatch trajectory — event order, times,
// everything observable — is identical for every span size (proven by
// TestRunSpansTrajectoryInvariant); span only bounds how far a single
// AdvanceTo call reaches, for callers that interleave simulation with
// periodic outside work.
func (e *Engine) RunSpans(span Time) {
	if span <= 0 {
		panic("sim: non-positive span")
	}
	e.stopped = false
	for !e.stopped {
		next, ok := e.NextTime()
		if !ok {
			return
		}
		target := e.now + span
		if next > target {
			// Nothing scheduled inside the span: jump the empty stretch
			// in one step instead of iterating span by span.
			target = next
		}
		e.AdvanceTo(target)
	}
}

// NextTime returns the timestamp of the next pending event, or ok=false
// when the queue is empty.
func (e *Engine) NextTime() (t Time, ok bool) {
	k, _, ok := e.peek()
	return k.at, ok
}

// run dispatches events with timestamps <= limit until the queue is
// exhausted past the limit or Stop is called.
func (e *Engine) run(limit Time) {
	e.stopped = false
	for !e.stopped {
		// Bulk pump: dispatch the monotone lane in a tight loop for as
		// long as it precedes the heap head — one compare per event, no
		// heap traffic. A dispatched handler can push into either lane
		// (and compact the FIFO), so every loop state is re-read per
		// iteration rather than cached.
		for e.fifoPos < len(e.fifo) && !e.stopped {
			ev := e.fifo[e.fifoPos]
			// Past the limit or behind the heap head: leave the merged
			// path below to decide — the heap may still hold earlier
			// events within the limit.
			if ev.at > limit {
				break
			}
			if e.events.len() > 0 && !ev.before(e.events.head()) {
				break
			}
			e.fifo[e.fifoPos] = event{} // release references for GC
			e.fifoPos++
			e.now = ev.at
			e.Executed++
			ev.dispatch()
		}
		if e.stopped {
			return
		}
		if k, _, ok := e.peek(); !ok || k.at > limit {
			return
		}
		e.step()
	}
}

// peek returns the key of the next event in (time, schedule-order) and
// whether it heads the sorted lane; ok is false when both lanes are
// empty.
func (e *Engine) peek() (k key, inFIFO, ok bool) {
	if e.fifoPos < len(e.fifo) {
		k = e.fifo[e.fifoPos].key
		if e.events.len() == 0 || k.before(e.events.head()) {
			return k, true, true
		}
	}
	if e.events.len() == 0 {
		return key{}, false, false
	}
	return e.events.head(), false, true
}

func (e *Engine) step() {
	var ev event
	if _, inFIFO, _ := e.peek(); inFIFO {
		ev = e.fifo[e.fifoPos]
		e.fifo[e.fifoPos] = event{} // release references for GC
		e.fifoPos++
	} else {
		ev = e.events.pop()
	}
	e.now = ev.at
	e.Executed++
	ev.dispatch()
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.len() + len(e.fifo) - e.fifoPos }

// Pipe models a unidirectional wire: each Send occupies the wire for
// SerializationDelay (back-to-back sends queue behind each other, FIFO) and
// then propagates for PropagationDelay before Sink is invoked with the
// payload. Busy time is accumulated for utilization/bandwidth accounting.
type Pipe struct {
	Engine             *Engine
	SerializationDelay Time
	PropagationDelay   Time
	// Sink receives each payload at its arrival time.
	Sink func(payload interface{})

	busyUntil Time
	// BusyTime is the cumulative serialization occupancy, the numerator
	// of link utilization.
	BusyTime Time
	// Sent counts payloads accepted (event-carried sends and reservations).
	Sent uint64
	// QueuePeak is the high-water mark of the serialization queue: the
	// largest number of payloads simultaneously waiting for or occupying
	// the wire, observed at claim time (the claiming payload included).
	// Back-to-back claims each occupy exactly SerializationDelay, so the
	// depth is the waiting time ahead of the claim divided by the
	// serialization delay, rounded up, plus one.
	QueuePeak uint64

	inFlight int
	// dispatchFn is the stable bound method delivering event-carried
	// payloads (built lazily, one allocation per pipe) so every SendAt can
	// decrement the in-flight count without a per-send closure.
	dispatchFn func(interface{})
}

// Send enqueues payload for transmission. It returns the time at which the
// wire becomes free again (end of serialization), letting senders model
// back-pressure.
func (p *Pipe) Send(payload interface{}) Time { return p.SendAt(payload, 0) }

// claim performs the wire-occupancy bookkeeping shared by SendAt and
// Reserve: serialization starts at max(now, earliest, wire-free) and the
// wire is busy until start+SerializationDelay. Returns the serialization
// end time.
func (p *Pipe) claim(earliest Time) Time {
	floor := p.Engine.Now()
	if earliest > floor {
		floor = earliest
	}
	start := floor
	if p.busyUntil > start {
		start = p.busyUntil
	}
	depth := uint64(1)
	if wait := p.busyUntil - floor; wait > 0 && p.SerializationDelay > 0 {
		depth += uint64((wait + p.SerializationDelay - 1) / p.SerializationDelay)
	}
	if depth > p.QueuePeak {
		p.QueuePeak = depth
	}
	end := start + p.SerializationDelay
	p.busyUntil = end
	p.BusyTime += p.SerializationDelay
	p.Sent++
	return end
}

// SendAt is Send with an earliest serialization start: the payload begins
// serializing at max(now, earliest, wire-free). Switches use it to fold
// their ingress-to-egress latency into the wire claim — the payload's
// arrival time is identical to scheduling a separate forward event at
// `earliest` and Sending then, without paying that event.
func (p *Pipe) SendAt(payload interface{}, earliest Time) Time {
	end := p.claim(earliest)
	p.inFlight++
	if p.dispatchFn == nil {
		p.dispatchFn = p.dispatch
	}
	p.Engine.AtArg(end+p.PropagationDelay, p.dispatchFn, payload)
	return end
}

func (p *Pipe) dispatch(payload interface{}) {
	p.inFlight--
	p.Sink(payload)
}

// Reserve claims the wire for one payload without carrying it through an
// event: identical occupancy accounting to SendAt (busy window, BusyTime,
// Sent, QueuePeak) but no delivery is scheduled and the payload never
// counts as in flight. It returns the arrival time a SendAt at `earliest`
// would have delivered at — the primitive behind express traversal, where
// a whole route's wires are claimed up front and only the final arrival
// becomes an engine event.
func (p *Pipe) Reserve(earliest Time) (arrival Time) {
	return p.claim(earliest) + p.PropagationDelay
}

// InFlight returns the number of payloads sent but not yet delivered to
// the sink. Reservations are not counted: an express claim is timing-only,
// while an in-flight payload is one whose downstream fate (forward, drop,
// fall back) is still undecided — the distinction express eligibility is
// built on.
func (p *Pipe) InFlight() int { return p.inFlight }

// FreeAt returns the earliest time a new Send would start serializing.
func (p *Pipe) FreeAt() Time {
	if p.busyUntil > p.Engine.Now() {
		return p.busyUntil
	}
	return p.Engine.Now()
}

// Utilization returns BusyTime divided by elapsed simulation time.
func (p *Pipe) Utilization() float64 {
	if p.Engine.Now() == 0 {
		return 0
	}
	return float64(p.BusyTime) / float64(p.Engine.Now())
}
