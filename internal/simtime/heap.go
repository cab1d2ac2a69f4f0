package simtime

import "time"

// entry is one pending event's position in the heap: its full fire-order
// key plus the slab slot holding its event. Entries are plain values, so
// the heap is one contiguous slice the garbage collector never scans for
// per-event pointers.
type entry struct {
	at  Time
	key SeqKey // tie-break rank among equal timestamps
	// seq is the unique insertion counter, the final tie-break: it keeps
	// the order total even when a caller plants two events on the same
	// (at, key).
	seq  uint64
	slot int32
}

// before is the full fire order: timestamp, then key, then insertion.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key.Less(b.key)
	}
	return a.seq < b.seq
}

// slot holds a pending event. gen advances every time the slot
// is released (fired or cancelled), so a Handle minted for an earlier
// occupant no longer matches and cannot touch the current one.
type slot struct {
	event Event
	pos   int32 // index of the slot's entry in the heap while pending
	gen   uint32
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle refers to no event.
type Handle struct {
	s    *HeapScheduler
	slot int32
	gen  uint32
}

// Cancelled reports whether the handle's event has been cancelled or
// already fired.
func (h Handle) Cancelled() bool {
	return h.s == nil || h.s.slots[h.slot].gen != h.gen
}

// heapArity is the heap's branching factor. A 4-ary heap is half as deep
// as a binary one, and the four children of a node sit next to each other
// in memory, so a sift-down touches fewer cache lines per level.
const heapArity = 4

// HeapScheduler is the discrete-event scheduler: a virtual clock plus a
// 4-ary min-heap of entry values ordered by (timestamp, sequence key,
// insertion). That order is total, so it fixes the fire sequence
// completely, ties included; the package tests pin it against a
// pointer-based container/heap oracle by property and fuzz tests. Events
// live by value in a slab of slots recycled through a free list. Once the
// queue has reached its working depth, Schedule, Cancel and Step allocate
// nothing. The heap and slab grow only when the pending count exceeds
// every earlier peak, and a released slot drops its event at once, so
// fired events are not kept alive. Slot generations are 32-bit: a stale
// Handle is safe for the first 2³² reuses of its slot. Not safe for
// concurrent use; the simulation gives each event loop its own scheduler
// so a given seed always produces an identical event order.
type HeapScheduler struct {
	now       Time
	cur       SeqKey // implicit key of the next Schedule call
	seq       uint64 // unique insertion counter
	scheduled uint64
	fired     uint64
	peak      int
	hook      FireHook

	heap  []entry
	slots []slot
	free  []int32 // released slot indices, reused last-in first-out
}

// NewScheduler returns a scheduler positioned at the trace epoch.
func NewScheduler() *HeapScheduler {
	return &HeapScheduler{}
}

// Now returns the current simulated time.
func (s *HeapScheduler) Now() Time { return s.now }

// Fired returns how many events have been executed, a cheap progress and
// complexity metric for benchmarks.
func (s *HeapScheduler) Fired() uint64 { return s.fired }

// Scheduled returns how many events have been queued over the scheduler's
// lifetime (fired, pending and cancelled alike) — the per-node work
// metric the engine's scaling contract is stated in.
func (s *HeapScheduler) Scheduled() uint64 { return s.scheduled }

// Pending returns the number of scheduled events not yet fired or cancelled.
func (s *HeapScheduler) Pending() int { return len(s.heap) }

// PeakPending returns the largest Pending count the scheduler has held —
// the event-loop depth the queue was sized by.
func (s *HeapScheduler) PeakPending() int { return s.peak }

// Schedule queues an event at an absolute simulated instant with the
// implicit tie-break key, which then advances by one Pos: absent
// Reseed/ScheduleKeyed, events with equal timestamps fire in Schedule
// order (FIFO), which keeps runs deterministic. Scheduling in the past
// (before Now) fires the event at the current time rather than rewinding
// the clock.
func (s *HeapScheduler) Schedule(at Time, ev Event) Handle {
	key := s.cur
	s.cur.Pos++
	return s.ScheduleKeyed(at, key, ev)
}

// ScheduleKeyed queues an event with an explicit tie-break key, leaving
// the implicit key untouched. Equal (timestamp, key) pairs fall back to
// insertion order.
func (s *HeapScheduler) ScheduleKeyed(at Time, key SeqKey, ev Event) Handle {
	if at < s.now {
		at = s.now
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[id]
	sl.event = ev
	s.heap = append(s.heap, entry{at: at, key: key, seq: s.seq, slot: id})
	s.seq++
	s.scheduled++
	if len(s.heap) > s.peak {
		s.peak = len(s.heap)
	}
	s.up(len(s.heap) - 1)
	return Handle{s: s, slot: id, gen: sl.gen}
}

// Reseed repositions the implicit key: the next Schedule call uses
// exactly key, the one after key with Pos+1, and so on.
func (s *HeapScheduler) Reseed(key SeqKey) { s.cur = key }

// SetFireHook installs a callback invoked immediately before every
// event fires, after the clock has advanced to the event's timestamp.
// The hook may call Reseed (the engine's keyed tie-break cursor lives
// there); it must not schedule or cancel events. A nil hook removes it.
func (s *HeapScheduler) SetFireHook(h FireHook) { s.hook = h }

// After queues an event delay after the current instant.
func (s *HeapScheduler) After(delay time.Duration, ev Event) Handle {
	return s.Schedule(s.now+delay, ev)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling a handle from
// another scheduler.
func (s *HeapScheduler) Cancel(h Handle) {
	if h.s != s || s.slots[h.slot].gen != h.gen {
		return
	}
	s.removeAt(int(s.slots[h.slot].pos))
	s.release(h.slot)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp, and hands the event to its handler. It reports false when no
// events remain. The event's slot is released before Fire runs, so the
// handler may schedule into it and the event's own handle already
// reports Cancelled.
func (s *HeapScheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	top := s.heap[0]
	s.removeAt(0)
	ev := s.slots[top.slot].event
	s.release(top.slot)
	s.now = top.at
	s.fired++
	if s.hook != nil {
		s.hook(top.at, top.key)
	}
	ev.Handler.Fire(s.now, ev)
	return true
}

// RunUntil fires events in order until the queue is empty or the next event
// lies strictly after the horizon. The clock finishes at the horizon (or at
// the last event, whichever is later — the clock never exceeds events that
// fired).
func (s *HeapScheduler) RunUntil(horizon Time) {
	for len(s.heap) > 0 && s.heap[0].at <= horizon {
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run drains the event queue completely.
func (s *HeapScheduler) Run() {
	for s.Step() {
	}
}

// release returns a slot to the free list, dropping its event and
// invalidating every outstanding handle to it.
func (s *HeapScheduler) release(id int32) {
	sl := &s.slots[id]
	sl.event = Event{}
	sl.gen++
	s.free = append(s.free, id)
}

// removeAt deletes the heap entry at index i, moving the last entry into
// the hole and restoring heap order around it.
func (s *HeapScheduler) removeAt(i int) {
	last := len(s.heap) - 1
	s.heap[i] = s.heap[last]
	s.heap = s.heap[:last]
	if i < last && !s.up(i) {
		s.down(i)
	}
}

// up sifts the entry at index i toward the root and reports whether it
// moved.
func (s *HeapScheduler) up(i int) bool {
	h := s.heap
	e := h[i]
	start := i
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = e
	s.slots[e.slot].pos = int32(i)
	return i != start
}

// down sifts the entry at index i toward the leaves.
func (s *HeapScheduler) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		s.slots[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = e
	s.slots[e.slot].pos = int32(i)
}
