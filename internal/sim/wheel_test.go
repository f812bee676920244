package sim

import (
	"fmt"
	"testing"
	"time"
)

// queueDriver runs a randomized schedule/cancel workload against one
// engine and records the exact fire/cancel sequence. Two drivers with
// the same seeds must produce identical logs regardless of queue kind.
// It honors the Event pooling contract: the driver forgets a handle the
// moment its event fires or is canceled, so it never Cancels a pointer
// that may have been recycled.
type queueDriver struct {
	eng     *Engine
	rng     *RNG
	log     []string
	pending []*Event
	next    int
}

func newQueueDriver(kind QueueKind) *queueDriver {
	return &queueDriver{eng: NewEngineWithQueue(7, kind), rng: NewRNG(99)}
}

func (d *queueDriver) forget(ev *Event) {
	for i, p := range d.pending {
		if p == ev {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
}

// randomDelay mixes the regimes the wheel has to get right: zero delay
// (insert into the draining bucket), near delays (ring), and delays
// past wheelSpan (overflow heap, including deep overflow).
func (d *queueDriver) randomDelay() Time {
	switch d.rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return Time(d.rng.Intn(int(50 * time.Millisecond)))
	case 4, 5, 6, 7:
		return Time(d.rng.Intn(int(2 * time.Second)))
	case 8:
		return Time(d.rng.Intn(int(40 * time.Second)))
	default:
		return Time(d.rng.Intn(int(5 * time.Minute)))
	}
}

func (d *queueDriver) schedule() {
	d.next++
	name := fmt.Sprintf("ev%d", d.next)
	var ev *Event
	ev = d.eng.Schedule(d.randomDelay(), name, func() {
		d.forget(ev)
		d.log = append(d.log, fmt.Sprintf("%s@%d", name, d.eng.Now()))
		if d.eng.Fired() < 20000 {
			for i, n := 0, d.rng.Intn(4); i < n; i++ {
				d.schedule()
			}
		}
		if len(d.pending) > 0 && d.rng.Float64() < 0.25 {
			victim := d.pending[d.rng.Intn(len(d.pending))]
			d.log = append(d.log, "cancel:"+victim.Name)
			d.forget(victim)
			d.eng.Cancel(victim)
		}
	})
	d.pending = append(d.pending, ev)
}

// TestWheelMatchesHeap is the differential determinism test: the wheel
// and the heap must fire the same randomized workload in the exact same
// order — the property that makes the queue kind invisible to results.
func TestWheelMatchesHeap(t *testing.T) {
	run := func(kind QueueKind) *queueDriver {
		d := newQueueDriver(kind)
		for i := 0; i < 64; i++ {
			d.schedule()
		}
		if err := d.eng.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	wheel, heap := run(QueueWheel), run(QueueHeap)
	if len(wheel.log) != len(heap.log) {
		t.Fatalf("log length: wheel %d, heap %d", len(wheel.log), len(heap.log))
	}
	for i := range wheel.log {
		if wheel.log[i] != heap.log[i] {
			t.Fatalf("logs diverge at %d: wheel %q, heap %q", i, wheel.log[i], heap.log[i])
		}
	}
	if len(wheel.log) < 20000 {
		t.Fatalf("workload too small to be meaningful: %d entries", len(wheel.log))
	}
	if wheel.eng.Fired() != heap.eng.Fired() {
		t.Fatalf("fired: wheel %d, heap %d", wheel.eng.Fired(), heap.eng.Fired())
	}
	if wheel.eng.Now() != heap.eng.Now() {
		t.Fatalf("final clock: wheel %v, heap %v", wheel.eng.Now(), heap.eng.Now())
	}
}

// TestWheelOverflowOrder pins the ring/overflow boundary: events beyond
// the wheel's span live in the overflow heap and must still fire in
// global (At, seq) order as the window advances to them.
func TestWheelOverflowOrder(t *testing.T) {
	e := NewEngine(1)
	var got []string
	add := func(at Time, name string) {
		e.ScheduleAt(at, name, func() { got = append(got, name) })
	}
	add(30*time.Second, "d") // deep overflow at schedule time
	add(0, "a")
	add(18*time.Second, "c") // just past wheelSpan (~17.2s)
	add(time.Millisecond, "b")
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// TestWheelEqualTimeFIFO pins intra-bucket FIFO: events at the same
// instant fire in scheduling order even when pushed into the bucket
// currently being drained.
func TestWheelEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []string
	at := 5 * time.Millisecond
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.ScheduleAt(at, name, func() {
			got = append(got, name)
			if name == "first" {
				// Lands in the bucket mid-drain, at the same instant.
				e.ScheduleAt(at, "nested", func() { got = append(got, "nested") })
			}
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"first", "second", "third", "nested"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// TestWheelPendingExact checks that lazy cancels don't smear Pending:
// the count must be exact immediately, not after the sweep catches up.
func TestWheelPendingExact(t *testing.T) {
	e := NewEngine(3)
	rng := NewRNG(17)
	events := make([]*Event, 100)
	for i := range events {
		at := Time(rng.Intn(int(40 * time.Second)))
		events[i] = e.ScheduleAt(at, "x", func() {})
	}
	for i := 0; i < 37; i++ {
		e.Cancel(events[i])
	}
	if got := e.Pending(); got != 63 {
		t.Fatalf("Pending after cancels = %d, want 63", got)
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Fired(); got != 63 {
		t.Fatalf("Fired = %d, want 63", got)
	}
}

// TestWheelHorizon checks the peek path: Run must stop at the horizon
// without firing future-dated events, on the wheel as on the heap.
func TestWheelHorizon(t *testing.T) {
	for _, kind := range []QueueKind{QueueWheel, QueueHeap} {
		e := NewEngineWithQueue(1, kind)
		fired := 0
		e.Schedule(time.Second, "near", func() { fired++ })
		e.Schedule(10*time.Second, "far", func() { fired++ })
		if err := e.Run(5 * time.Second); err != nil {
			t.Fatalf("kind %d Run: %v", kind, err)
		}
		if fired != 1 || e.Pending() != 1 || e.Now() != 5*time.Second {
			t.Fatalf("kind %d: fired=%d pending=%d now=%v", kind, fired, e.Pending(), e.Now())
		}
	}
}

// TestEventFreeList pins struct reuse: a fired event's struct must come
// back from the free list for the next schedule.
func TestEventFreeList(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.Schedule(time.Millisecond, "a", func() {})
	if !e.Step() {
		t.Fatal("Step returned false")
	}
	ev2 := e.Schedule(time.Millisecond, "b", func() {})
	if ev1 != ev2 {
		t.Fatal("fired event struct was not reused from the free list")
	}
	// Eager cancel on the heap queue recycles immediately too.
	h := NewEngineWithQueue(1, QueueHeap)
	c1 := h.Schedule(time.Millisecond, "a", func() {})
	h.Cancel(c1)
	c2 := h.Schedule(time.Millisecond, "b", func() {})
	if c1 != c2 {
		t.Fatal("canceled event struct was not reused from the free list")
	}
}

// Sorting a freshly-current bucket must not allocate: it runs once per
// 16.8 ms of virtual time on every engine, and the sort's result is
// fixed by the strict (At, seq) order whatever algorithm produces it.
func TestWheelSortCurrentAllocatesNothing(t *testing.T) {
	rng := NewRNG(4)
	w := &timerWheel{}
	b := make([]*Event, 512)
	for i := range b {
		b[i] = &Event{At: Time(rng.Intn(int(wheelWidth))), seq: uint64(i)}
	}
	w.buckets[0] = b
	allocs := testing.AllocsPerRun(20, func() {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		w.sortCurrent()
	})
	if allocs != 0 {
		t.Fatalf("sortCurrent allocated %v times per bucket, want 0", allocs)
	}
	for i := 1; i < len(b); i++ {
		if !eventBefore(b[i-1], b[i]) {
			t.Fatalf("bucket not in (At, seq) order at %d", i)
		}
	}
}

// BenchmarkEngineStep measures the event hot loop on both queue kinds:
// 4096 self-rescheduling chains with random 1–100ms delays, the density
// regime of a large MOOC run. The timer starts after one full wheel
// rotation, once every bucket has grown to its working size, so the
// figure is the steady state. Results are quoted in ARCHITECTURE.md.
func BenchmarkEngineStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		kind QueueKind
	}{{"wheel", QueueWheel}, {"heap", QueueHeap}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngineWithQueue(1, bc.kind)
			rng := NewRNG(2)
			delay := func() Time {
				return Time(time.Millisecond) + Time(rng.Intn(int(99*time.Millisecond)))
			}
			for i := 0; i < 4096; i++ {
				var fn func()
				fn = func() { e.Schedule(delay(), "tick", fn) }
				e.Schedule(delay(), "tick", fn)
			}
			for e.Now() < wheelSpan {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
