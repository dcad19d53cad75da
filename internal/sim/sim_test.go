package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d", e.Now())
	}
	if e.Executed != 3 {
		t.Fatalf("executed %d", e.Executed)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times %v", times)
	}
}

func TestZeroDelayRunsAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.Schedule(7, func() {
		e.Schedule(0, func() {
			if e.Now() != 7 {
				t.Errorf("zero-delay event at %d", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d", e.Pending())
	}
	// Boundary: events exactly at t are included.
	e.RunUntil(15)
	if len(ran) != 3 {
		t.Fatalf("boundary event missed: %v", ran)
	}
	e.Run()
	if len(ran) != 4 || e.Now() != 20 {
		t.Fatalf("final: %v at %d", ran, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events after Stop", count)
	}
	// Run again resumes.
	e.Run()
	if count != 100 {
		t.Fatalf("resume ran to %d", count)
	}
}

func TestPipeDelays(t *testing.T) {
	e := NewEngine()
	var arrivals []Time
	var got []interface{}
	p := &Pipe{
		Engine:             e,
		SerializationDelay: 2 * Nanosecond,
		PropagationDelay:   10 * Nanosecond,
		Sink: func(pl interface{}) {
			arrivals = append(arrivals, e.Now())
			got = append(got, pl)
		},
	}
	p.Send("a") // ser 0-2ns, arrives 12ns
	p.Send("b") // ser 2-4ns, arrives 14ns
	e.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != 12*Nanosecond || arrivals[1] != 14*Nanosecond {
		t.Fatalf("arrival times %v", arrivals)
	}
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("payload order %v", got)
	}
}

func TestPipeSerializationQueuing(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 5, PropagationDelay: 0, Sink: func(interface{}) {}}
	end1 := p.Send(1)
	end2 := p.Send(2)
	if end1 != 5 || end2 != 10 {
		t.Fatalf("serialization ends %d, %d", end1, end2)
	}
	if p.FreeAt() != 10 {
		t.Fatalf("FreeAt %d", p.FreeAt())
	}
	e.Run()
	if p.BusyTime != 10 {
		t.Fatalf("BusyTime %d", p.BusyTime)
	}
}

func TestPipeIdleGapNotCountedBusy(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 2, PropagationDelay: 1, Sink: func(interface{}) {}}
	p.Send(1)
	e.Schedule(100, func() { p.Send(2) })
	e.Run()
	if p.BusyTime != 4 {
		t.Fatalf("BusyTime %d, want 4", p.BusyTime)
	}
	u := p.Utilization()
	want := 4.0 / float64(e.Now())
	if u != want {
		t.Fatalf("utilization %v, want %v", u, want)
	}
}

func TestPipeInOrderUnderLoad(t *testing.T) {
	e := NewEngine()
	var got []int
	p := &Pipe{Engine: e, SerializationDelay: 3, PropagationDelay: 7,
		Sink: func(pl interface{}) { got = append(got, pl.(int)) }}
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(Time(i), func() { p.Send(i) })
	}
	e.Run()
	if len(got) != 50 {
		t.Fatalf("got %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
	if p.Sent != 50 {
		t.Fatalf("Sent %d", p.Sent)
	}
}

func TestUtilizationZeroTime(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 1, Sink: func(interface{}) {}}
	if p.Utilization() != 0 {
		t.Fatal("utilization at t=0 should be 0")
	}
}

// trajectory runs a canonical mixed workload — two monotone event chains,
// an out-of-order timer that reschedules into the past-relative region, and
// nested zero-delay events — under the given drive function and records
// every dispatch as (time, id).
func trajectory(drive func(*Engine)) []Time {
	e := NewEngine()
	var log []Time
	var chain func()
	n := 0
	chain = func() {
		log = append(log, e.Now())
		n++
		if n < 500 {
			e.Schedule(3, chain)
			if n%7 == 0 {
				// Out-of-order backstop: lands before the monotone tail.
				e.At(e.Now()+1, func() { log = append(log, e.Now()+1000000) })
			}
			if n%11 == 0 {
				e.Schedule(0, func() { log = append(log, e.Now()+2000000) })
			}
		}
	}
	e.Schedule(0, chain)
	drive(e)
	return log
}

// TestRunSpansTrajectoryInvariant is the bulk-advance determinism bar: the
// dispatch trajectory must be identical whether the queue is drained by
// Run, by AdvanceTo in one jump, or by RunSpans at any span size.
func TestRunSpansTrajectoryInvariant(t *testing.T) {
	ref := trajectory(func(e *Engine) { e.Run() })
	if len(ref) == 0 {
		t.Fatal("reference trajectory empty")
	}
	drivers := map[string]func(*Engine){
		"AdvanceToOnce": func(e *Engine) { e.AdvanceTo(maxTime - 1) },
		"Spans1":        func(e *Engine) { e.RunSpans(1) },
		"Spans2":        func(e *Engine) { e.RunSpans(2) },
		"Spans17":       func(e *Engine) { e.RunSpans(17) },
		"SpansHuge":     func(e *Engine) { e.RunSpans(1 * Second) },
	}
	for name, drive := range drivers {
		got := trajectory(drive)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d dispatches, want %d", name, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: dispatch %d at %d, want %d", name, i, got[i], ref[i])
			}
		}
	}
}

// TestAdvanceToJumpsIdleStretch: with nothing scheduled inside the span,
// the clock jumps in one assignment rather than ticking.
func TestAdvanceToJumpsIdleStretch(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1*Second, func() { ran = true })
	e.AdvanceTo(1 * Millisecond)
	if ran || e.Now() != 1*Millisecond {
		t.Fatalf("ran=%v now=%d", ran, e.Now())
	}
	if e.Executed != 0 {
		t.Fatalf("executed %d events crossing an empty stretch", e.Executed)
	}
	e.AdvanceTo(2 * Second)
	if !ran || e.Now() != 2*Second {
		t.Fatalf("ran=%v now=%d", ran, e.Now())
	}
}

// TestRunSpansStop: Stop inside a span ends the drain immediately.
func TestRunSpansStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.RunSpans(1000)
	if count != 10 {
		t.Fatalf("ran %d events after Stop", count)
	}
}

// TestRunSpansNonPositivePanics pins the span guard.
func TestRunSpansNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEngine().RunSpans(0)
}

// TestNextTime covers the empty, sorted-lane-only, and heap-head cases.
func TestNextTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	// Deepen the sorted lane beyond the insertion window so the push at 7
	// genuinely lands in the heap, then verify the merged peek reports it.
	for i := Time(0); i < 12; i++ {
		e.Schedule(42+i, func() {})
	}
	e.At(7, func() {})
	if e.events.len() == 0 {
		t.Fatal("event at 7 did not reach the heap lane")
	}
	if at, ok := e.NextTime(); !ok || at != 7 {
		t.Fatalf("NextTime = %d,%v want 7,true", at, ok)
	}
}

// TestPushBeyondInsertWindowGoesToHeap pins the lane-routing boundary the
// mixed engine benchmark relies on: an out-of-order push within
// fifoInsertWindow slots of the tail stays in the sorted lane; one deeper
// than the window reaches the heap.
func TestPushBeyondInsertWindowGoesToHeap(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.At(50, func() {}) // 1-deep lane: absorbed by tail insertion
	if e.events.len() != 0 {
		t.Fatal("shallow out-of-order push escaped the sorted lane")
	}

	e = NewEngine()
	for j := Time(0); j < 12; j++ {
		e.Schedule(4+2*j, func() {})
	}
	e.At(1, func() {}) // 12-deep lane: beyond the window → heap
	if e.events.len() != 1 {
		t.Fatalf("deep out-of-order push not in heap (heap len %d)", e.events.len())
	}
	var order []Time
	e.At(1, func() { order = append(order, 1) })
	e.Schedule(4, func() { order = append(order, 4) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 4 {
		t.Fatalf("heap/lane merge order wrong: %v", order)
	}
}

// TestAdvanceToHeapBeforeFIFOHead: an out-of-order event earlier than
// the sorted lane's head must dispatch within an AdvanceTo whose limit
// excludes the lane head — the pump may not conclude "past the limit"
// from the lane alone.
func TestAdvanceToHeapBeforeFIFOHead(t *testing.T) {
	e := NewEngine()
	var ran []Time
	// Ten lane events at 100.. so the 50 push falls outside the bounded
	// tail-insertion window and genuinely lands in the heap.
	for i := 0; i < 10; i++ {
		at := Time(100 + i)
		e.At(at, func() { ran = append(ran, at) })
	}
	e.At(50, func() { ran = append(ran, 50) })
	e.AdvanceTo(60)
	if len(ran) != 1 || ran[0] != 50 {
		t.Fatalf("ran %v, want just the heap event at 50", ran)
	}
	e.Run()
	if len(ran) != 11 {
		t.Fatalf("ran %d events total", len(ran))
	}
}

// TestBulkPumpHeapInterleave: out-of-order events pushed mid-drain must
// preempt later monotone events — the bulk pump may not run past them.
func TestBulkPumpHeapInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		order = append(order, "a")
		// Out-of-order push during the monotone drain: must run before the
		// monotone events at 30 and 40.
		e.At(20, func() { order = append(order, "heap") })
	})
	e.Schedule(30, func() { order = append(order, "b") })
	e.Schedule(40, func() { order = append(order, "c") })
	e.Run()
	want := []string{"a", "heap", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000), fn)
		if e.Pending() > 10000 {
			e.RunUntil(e.Now() + 500)
		}
	}
	e.Run()
}

func BenchmarkPipeSend(b *testing.B) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 2 * Nanosecond, PropagationDelay: 10 * Nanosecond,
		Sink: func(interface{}) {}}
	for i := 0; i < b.N; i++ {
		p.Send(i)
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}

// TestFIFOLaneCompaction drives two interleaved self-perpetuating event
// chains so the monotone lane never fully drains: at every push another
// monotone event is still pending, the drained-reset in push never fires,
// and before compaction the lane grew by one slot per dispatched event.
// The backing array must stay O(pending), not O(total events dispatched).
func TestFIFOLaneCompaction(t *testing.T) {
	e := NewEngine()
	const total = 100000
	var ran [2]int
	var chain [2]func()
	for i := range chain {
		i := i
		chain[i] = func() {
			ran[i]++
			if ran[i] < total/2 {
				e.Schedule(1, chain[i])
			}
		}
	}
	e.Schedule(0, chain[0])
	e.Schedule(0, chain[1])
	e.Run()
	if ran[0] != total/2 || ran[1] != total/2 {
		t.Fatalf("chains ran %v, want %d each", ran, total/2)
	}
	if e.Executed != total {
		t.Fatalf("executed %d, want %d", e.Executed, total)
	}
	if c := cap(e.fifo); c > 1024 {
		t.Fatalf("fifo backing array grew to %d slots for %d events; dispatched prefix not reclaimed", c, total)
	}
}

// TestDispatchMatchesReferenceSort drives random schedules through both
// lanes — equal-time ties, pushes far below the sorted lane's tail, and
// pushes from inside handlers — and requires the dispatch order to be
// exactly a sort of every pushed event on (at, seq). (at, seq) is unique
// and no handler can push below its own key, so that sort is the one
// total order a correct queue can produce. It also checks that the heap
// reuses vacated slab slots: the slab reaches exactly the heap's peak
// size, never more than peak Pending(), and holds no references once
// drained.
func TestDispatchMatchesReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var pushed []rec
		var order []int // seq of each dispatch
		peakPending, peakHeap := 0, 0
		var push func(at Time)
		push = func(at Time) {
			seq := len(pushed)
			pushed = append(pushed, rec{at, seq})
			e.At(at, func() {
				order = append(order, seq)
				// A third of the handlers schedule more: zero delay
				// (ties the current instant), a short hop (near the
				// tail) or a long one (often deep below it).
				for k := rng.Intn(3); k > 0 && len(pushed) < 3000; k-- {
					switch rng.Intn(3) {
					case 0:
						push(e.Now())
					case 1:
						push(e.Now() + Time(rng.Intn(4)))
					default:
						push(e.Now() + Time(rng.Intn(5000)))
					}
				}
			})
			if p := e.Pending(); p > peakPending {
				peakPending = p
			}
			if h := e.events.len(); h > peakHeap {
				peakHeap = h
			}
		}
		for i := 0; i < 400; i++ {
			if rng.Intn(2) == 0 {
				push(Time(rng.Intn(8)) * 100) // few distinct times: ties
			} else {
				push(Time(rng.Intn(20000))) // wide, out of order
			}
		}
		e.Run()

		ref := append([]rec(nil), pushed...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		if len(order) != len(ref) {
			t.Fatalf("seed %d: dispatched %d of %d events", seed, len(order), len(ref))
		}
		for i, r := range ref {
			if order[i] != r.seq {
				t.Fatalf("seed %d: dispatch %d is event %d, want %d (at %d)", seed, i, order[i], r.seq, r.at)
			}
		}
		if peakHeap < 50 {
			t.Fatalf("seed %d: heap lane peaked at %d events; the schedule does not exercise it", seed, peakHeap)
		}
		if n := len(e.events.slab); n != peakHeap || n > peakPending {
			t.Fatalf("seed %d: slab grew to %d slots; heap peak %d, Pending peak %d", seed, n, peakHeap, peakPending)
		}
		for i, ev := range e.events.slab {
			if ev.fn != nil || ev.sink != nil || ev.arg != nil {
				t.Fatalf("seed %d: drained slab slot %d still holds references", seed, i)
			}
		}
	}
}

// TestPipeReserveMatchesSendTiming: Reserve claims the wire exactly as
// SendAt does — same serialization window, same busy accounting, same
// arrival arithmetic — without scheduling a delivery event, so express
// claims and hop-by-hop sends interleave on one wire with identical
// timing in either order.
func TestPipeReserveMatchesSendTiming(t *testing.T) {
	e := NewEngine()
	var arrivals []Time
	p := &Pipe{Engine: e, SerializationDelay: 3, PropagationDelay: 7,
		Sink: func(interface{}) { arrivals = append(arrivals, e.Now()) }}
	a1 := p.Reserve(0)      // ser 0-3, arrival 10
	end := p.SendAt("x", 0) // queues behind the claim: ser 3-6, arrival 13
	a2 := p.Reserve(0)      // ser 6-9, arrival 16
	if a1 != 10 || end != 6 || a2 != 16 {
		t.Fatalf("reserve/send/reserve = %d/%d/%d, want 10/6/16", a1, end, a2)
	}
	e.Run()
	if len(arrivals) != 1 || arrivals[0] != 13 {
		t.Fatalf("send arrivals %v, want [13]", arrivals)
	}
	if p.Sent != 3 || p.BusyTime != 9 {
		t.Fatalf("Sent %d BusyTime %d, want 3 and 9", p.Sent, p.BusyTime)
	}
}

// TestPipeReserveHonorsEarliest: a reservation respects the earliest
// bound the same way SendAt does.
func TestPipeReserveHonorsEarliest(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 2, PropagationDelay: 5, Sink: func(interface{}) {}}
	if a := p.Reserve(100); a != 107 {
		t.Fatalf("arrival %d, want 107", a)
	}
	if p.FreeAt() != 102 {
		t.Fatalf("FreeAt %d, want 102", p.FreeAt())
	}
}

// TestPipeInFlight: InFlight counts payloads sent but not yet delivered;
// reservations never count (an express flit is not on this wire's event
// queue — that is the point of reserving).
func TestPipeInFlight(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 2, PropagationDelay: 10, Sink: func(interface{}) {}}
	if p.InFlight() != 0 {
		t.Fatalf("idle InFlight %d", p.InFlight())
	}
	p.SendAt(1, 0)
	p.Reserve(0)
	if p.InFlight() != 1 {
		t.Fatalf("InFlight %d after one send + one reserve, want 1", p.InFlight())
	}
	p.SendAt(2, 0)
	if p.InFlight() != 2 {
		t.Fatalf("InFlight %d after two sends, want 2", p.InFlight())
	}
	e.Run()
	if p.InFlight() != 0 {
		t.Fatalf("InFlight %d after drain, want 0", p.InFlight())
	}
}

// TestPipeQueuePeak: QueuePeak records the deepest serialization backlog
// (claiming flit included) and never decays as the queue drains.
func TestPipeQueuePeak(t *testing.T) {
	e := NewEngine()
	p := &Pipe{Engine: e, SerializationDelay: 2, PropagationDelay: 1, Sink: func(interface{}) {}}
	if p.QueuePeak != 0 {
		t.Fatalf("initial QueuePeak %d", p.QueuePeak)
	}
	p.Send(1)
	if p.QueuePeak != 1 {
		t.Fatalf("QueuePeak %d after uncontended send, want 1", p.QueuePeak)
	}
	p.Send(2)
	p.Send(3)
	if p.QueuePeak != 3 {
		t.Fatalf("QueuePeak %d after burst of 3, want 3", p.QueuePeak)
	}
	e.Run()
	p.Send(4) // wire is idle again: depth 1, high-water mark stays
	if p.QueuePeak != 3 {
		t.Fatalf("QueuePeak %d after drain, want 3", p.QueuePeak)
	}
}
