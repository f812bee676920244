package sim

import (
	"cmp"
	"container/heap"
	"slices"
)

// This file is the bucketed timer wheel — the engine's default event
// queue. A DES at MOOC scale pops millions of events whose firing times
// cluster tightly around "now" (arrivals, service completions, transfer
// finishes all land within seconds); a binary heap pays O(log n) pointer
// chasing per operation over the whole pending set, while the wheel
// files near-future events into fixed-width time buckets and only sorts
// one small bucket at a time.
//
// Layout: a ring of wheelBuckets buckets, each wheelWidth of virtual
// time wide, covering a rotating window [floor, floor+wheelSpan). Events
// inside the window append unsorted to their bucket; events beyond it
// wait in an overflow heap and migrate in as the window advances. The
// bucket under the cursor is sorted by (At, seq) lazily when it becomes
// current, and drained front-first through a head index; events pushed
// into the current bucket mid-drain binary-insert into the sorted
// remainder, so intra-bucket FIFO among equal times is preserved
// exactly. Both queue implementations therefore pop in identical
// (At, seq) order — the property TestWheelMatchesHeap pins — which is
// what lets the wheel be the default without moving a single golden
// byte.
//
// Cancels are lazy for ring entries: the event is marked dead
// (index = -1) and skipped — and recycled to the engine's free list —
// when the sweep reaches it. Overflow entries cancel eagerly through
// heap.Remove. Pending() stays exact either way because the wheel keeps
// its own live count.

const (
	// wheelWidthBits sets the bucket width to 2^24 ns ≈ 16.8 ms: wide
	// enough that sparse phases cross few empty buckets, narrow enough
	// that a dense bucket at MOOC arrival rates stays a few hundred
	// events (see BenchmarkEngineStep).
	wheelWidthBits  = 24
	wheelBucketBits = 10
	wheelBuckets    = 1 << wheelBucketBits
	wheelMask       = wheelBuckets - 1
	wheelWidth      = Time(1) << wheelWidthBits
	wheelSpan       = Time(1) << (wheelWidthBits + wheelBucketBits)

	// ringIndex marks an event filed in the ring (as opposed to a heap
	// position in the overflow). It only needs to be non-negative and
	// beyond any plausible overflow size.
	ringIndex = 1 << 30
)

// eventCmp is the queue's total order: (At, seq) ascending. seq is
// unique per engine, so the order is strict and deterministic.
func eventCmp(a, b *Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// eventBefore reports whether a precedes b in eventCmp's order.
func eventBefore(a, b *Event) bool { return eventCmp(a, b) < 0 }

type timerWheel struct {
	buckets [wheelBuckets][]*Event
	// cur is the cursor's ring slot; floor is the start of its time
	// interval; head indexes the next un-popped entry in buckets[cur]
	// (earlier entries have been popped or swept and nil'd).
	cur   int
	floor Time
	head  int
	// live counts non-canceled events filed in the ring; n counts all
	// non-canceled events (ring + overflow) and backs size().
	live     int
	n        int
	overflow eventHeap
	// recycle receives lazily-canceled ring entries when the sweep
	// reaches them, returning their structs to the engine's free list.
	recycle func(*Event)
}

func (w *timerWheel) size() int { return w.n }

func (w *timerWheel) push(ev *Event) {
	w.n++
	if ev.At >= w.floor+wheelSpan {
		heap.Push(&w.overflow, ev) // sets ev.index to its heap position
		return
	}
	// The engine clamps At to now ≥ floor, so every in-window time maps
	// to a unique slot.
	slot := int(ev.At>>wheelWidthBits) & wheelMask
	ev.index = ringIndex
	w.live++
	if slot == w.cur {
		w.insertCurrent(ev)
		return
	}
	w.buckets[slot] = append(w.buckets[slot], ev)
}

// insertCurrent files ev into the sorted remainder of the current
// bucket, preserving (At, seq) order mid-drain.
func (w *timerWheel) insertCurrent(ev *Event) {
	b := w.buckets[w.cur]
	lo, hi := w.head, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(b[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = ev
	w.buckets[w.cur] = b
}

func (w *timerWheel) remove(ev *Event) bool {
	if ev.index == ringIndex {
		// Lazy: the bucket still references the struct; the sweep
		// recycles it when the cursor gets there.
		ev.index = -1
		w.live--
		w.n--
		return false
	}
	heap.Remove(&w.overflow, ev.index) // eager; sets ev.index to -1
	w.n--
	return true
}

func (w *timerWheel) peek() *Event { return w.settle() }

func (w *timerWheel) pop() *Event {
	ev := w.settle()
	if ev == nil {
		return nil
	}
	w.buckets[w.cur][w.head] = nil
	w.head++
	ev.index = -1
	w.live--
	w.n--
	return ev
}

// settle advances the cursor until the next live event is at the front
// of the current bucket (sweeping canceled leftovers along the way) and
// returns it, or nil when the queue is empty.
func (w *timerWheel) settle() *Event {
	for {
		b := w.buckets[w.cur]
		for w.head < len(b) {
			ev := b[w.head]
			if ev.index >= 0 {
				return ev
			}
			// Canceled entry: sweep it and recycle the struct.
			b[w.head] = nil
			w.head++
			w.recycle(ev)
		}
		w.buckets[w.cur] = b[:0]
		w.head = 0
		if w.n == 0 {
			return nil
		}
		if w.live > 0 {
			w.cur = (w.cur + 1) & wheelMask
			w.floor += wheelWidth
		} else {
			// Ring empty: jump the window straight to the overflow top
			// instead of crawling bucket by bucket through a quiet gap.
			top := w.overflow[0]
			w.floor = top.At >> wheelWidthBits << wheelWidthBits
			w.cur = int(top.At>>wheelWidthBits) & wheelMask
		}
		w.migrate()
		w.sortCurrent()
	}
}

// migrate moves overflow events that now fall inside the window into
// their ring buckets.
func (w *timerWheel) migrate() {
	limit := w.floor + wheelSpan
	for len(w.overflow) > 0 && w.overflow[0].At < limit {
		ev := heap.Pop(&w.overflow).(*Event)
		ev.index = ringIndex
		slot := int(ev.At>>wheelWidthBits) & wheelMask
		w.buckets[slot] = append(w.buckets[slot], ev)
		w.live++
	}
}

// sortCurrent orders the freshly-current bucket by (At, seq). Canceled
// leftovers from earlier rotations sort wherever their stale times put
// them and are swept on contact; live entries come out in exact queue
// order. The order is strict and total, so the unstable sort has one
// possible result; slices.SortFunc sorts without allocating.
func (w *timerWheel) sortCurrent() {
	if b := w.buckets[w.cur]; len(b) > 1 {
		slices.SortFunc(b, eventCmp)
	}
}
