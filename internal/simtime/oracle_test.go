package simtime

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// refScheduler is the order oracle: a pointer-per-event binary heap on
// container/heap, the scheduler this package shipped before the slab
// heap. It is deliberately the simplest correct implementation of the
// (timestamp, key, insertion) order; HeapScheduler must pop exactly what
// it pops.
type refScheduler struct {
	now    Time
	cur    SeqKey
	seq    uint64
	fired  uint64
	events refHeap
}

type refItem struct {
	at    Time
	key   SeqKey
	seq   uint64
	event Event
	index int // heap position; -1 once fired or cancelled
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key.Less(b.key)
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	it.index = -1
	*h = old[:len(old)-1]
	return it
}

func (s *refScheduler) Now() Time       { return s.now }
func (s *refScheduler) Fired() uint64   { return s.fired }
func (s *refScheduler) Pending() int    { return len(s.events) }
func (s *refScheduler) Reseed(k SeqKey) { s.cur = k }

func (s *refScheduler) Schedule(at Time, e Event) *refItem {
	key := s.cur
	s.cur.Pos++
	return s.ScheduleKeyed(at, key, e)
}

func (s *refScheduler) ScheduleKeyed(at Time, key SeqKey, e Event) *refItem {
	if at < s.now {
		at = s.now
	}
	it := &refItem{at: at, key: key, seq: s.seq, event: e}
	s.seq++
	heap.Push(&s.events, it)
	return it
}

func (s *refScheduler) Cancel(it *refItem) {
	if it == nil || it.index == -1 {
		return
	}
	heap.Remove(&s.events, it.index)
}

func (s *refScheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	it := heap.Pop(&s.events).(*refItem)
	s.now = it.at
	s.fired++
	it.event.Handler.Fire(s.now, it.event)
	return true
}

func (s *refScheduler) Run() {
	for s.Step() {
	}
}

// orderScheduler is the part of the scheduler API the equivalence tests
// drive, generic over the handle type so the oracle can keep its own.
type orderScheduler[H any] interface {
	Now() Time
	Fired() uint64
	Pending() int
	Schedule(at Time, e Event) H
	ScheduleKeyed(at Time, key SeqKey, e Event) H
	Reseed(key SeqKey)
	Cancel(h H)
	Step() bool
	Run()
}

var (
	_ orderScheduler[Handle]   = (*HeapScheduler)(nil)
	_ orderScheduler[*refItem] = (*refScheduler)(nil)
)

// popRecord is one fired event in a scripted run: its firing instant and
// the tag the script gave it. The script is replayed identically on each
// scheduler, so equal pop traces mean equal order — ties, cancellations
// and reentrant scheduling included.
type popRecord struct {
	at  Time
	tag int
}

// opScript is a deterministic random operation mix: schedules (with
// deliberately colliding timestamps), explicitly keyed schedules,
// cancellations of random live or stale handles, events that schedule
// more events when they fire, and far-future outliers.
type opScript struct {
	seed   uint64
	n      int
	spanNS int64
	// tieEvery forces every k-th timestamp onto a small grid so exact
	// collisions are common, not astronomically rare.
	tieEvery int
	// farEvery schedules every k-th event years past the rest.
	farEvery int
	// keyedEvery plants every k-th event at an explicit key drawn from a
	// small range, so keyed and implicit events interleave at ties.
	keyedEvery int
	// cancelFrac cancels roughly this fraction of scheduled events.
	cancelFrac float64
	// chainFrac makes roughly this fraction of events schedule a child
	// when they fire (reentrant scheduling, like the probe machinery).
	chainFrac float64
}

func runScript[H any](sc opScript, s orderScheduler[H]) []popRecord {
	rng := rand.New(rand.NewPCG(sc.seed, 0xca1e4da5))
	var trace []popRecord
	var handles []H
	tag := 0
	schedule := func(i int, at Time) {
		myTag := tag
		tag++
		ev := call(func(now Time) {
			trace = append(trace, popRecord{at: now, tag: myTag})
			if rng.Float64() < sc.chainFrac {
				childTag := tag
				tag++
				child := now + Time(rng.Int64N(sc.spanNS/4+1))
				s.Schedule(child, call(func(n2 Time) {
					trace = append(trace, popRecord{at: n2, tag: childTag})
				}))
			}
			if len(handles) > 0 && rng.Float64() < sc.cancelFrac {
				s.Cancel(handles[rng.IntN(len(handles))])
			}
		})
		if sc.keyedEvery > 0 && i%sc.keyedEvery == 0 {
			key := SeqKey{Epoch: rng.Uint64N(4), Pos: rng.Uint64N(4)}
			handles = append(handles, s.ScheduleKeyed(at, key, ev))
			s.Reseed(SeqKey{Epoch: rng.Uint64N(4), Pos: 1})
			return
		}
		handles = append(handles, s.Schedule(at, ev))
	}
	for i := 0; i < sc.n; i++ {
		var at Time
		switch {
		case sc.farEvery > 0 && i%sc.farEvery == sc.farEvery-1:
			// The factor keeps the largest product well inside int64.
			at = Time(sc.spanNS) * 50 * Time(1+rng.Int64N(4))
		case sc.tieEvery > 0 && i%sc.tieEvery == 0:
			at = Time(rng.Int64N(8)) * Time(sc.spanNS/8+1)
		default:
			at = Time(rng.Int64N(sc.spanNS))
		}
		schedule(i, at)
		if rng.Float64() < sc.cancelFrac/2 {
			s.Cancel(handles[rng.IntN(len(handles))])
		}
	}
	s.Run()
	return trace
}

func equalTraces(t *testing.T, label string, want, got []popRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: oracle fired %d events, scheduler %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pop %d differs: oracle %v scheduler %v", label, i, want[i], got[i])
		}
	}
}

// TestSchedulerOracleEquivalence is the order-equivalence pin: across
// many scripted workloads HeapScheduler must pop the exact sequence the
// oracle pops — same timestamps, same tie resolution, same surviving set
// after cancellations.
func TestSchedulerOracleEquivalence(t *testing.T) {
	scripts := []opScript{
		{seed: 1, n: 500, spanNS: int64(time.Hour), tieEvery: 3, cancelFrac: 0.2, chainFrac: 0.3},
		{seed: 2, n: 2000, spanNS: int64(time.Second), tieEvery: 2, cancelFrac: 0.4, chainFrac: 0.1},
		{seed: 3, n: 1000, spanNS: int64(40 * 24 * time.Hour), farEvery: 7, cancelFrac: 0.1, chainFrac: 0.2},
		{seed: 4, n: 50, spanNS: 10, tieEvery: 1, cancelFrac: 0.3, chainFrac: 0.5}, // almost everything ties
		{seed: 5, n: 3000, spanNS: int64(time.Millisecond), cancelFrac: 0.6, chainFrac: 0.05},
		{seed: 6, n: 200, spanNS: int64(365 * 24 * time.Hour), farEvery: 2, chainFrac: 0.4}, // sparse, far-future heavy
		{seed: 7, n: 2000, spanNS: 1000, tieEvery: 2, keyedEvery: 3, cancelFrac: 0.3, chainFrac: 0.3},
	}
	for _, sc := range scripts {
		want := runScript[*refItem](sc, &refScheduler{})
		got := runScript[Handle](sc, NewScheduler())
		if len(want) == 0 {
			t.Fatalf("seed %d: empty trace proves nothing", sc.seed)
		}
		equalTraces(t, fmt.Sprintf("seed %d", sc.seed), want, got)
	}
}

// TestSchedulerStepEquivalence drives both schedulers one Step at a time,
// checking clock, fired count and pending count after every pop — the
// finer-grained version of the whole-trace comparison.
func TestSchedulerStepEquivalence(t *testing.T) {
	h, r := NewScheduler(), &refScheduler{}
	rng := rand.New(rand.NewPCG(99, 42))
	var hs []Handle
	var rs []*refItem
	for i := 0; i < 400; i++ {
		at := Time(rng.Int64N(int64(time.Minute)))
		if i%5 == 0 {
			at = Time(rng.Int64N(4)) * 10 * Time(time.Second) // ties
		}
		hs = append(hs, h.Schedule(at, call(func(Time) {})))
		rs = append(rs, r.Schedule(at, call(func(Time) {})))
	}
	for i := 0; i < len(hs); i += 3 {
		h.Cancel(hs[i])
		r.Cancel(rs[i])
	}
	for {
		if h.Pending() != r.Pending() {
			t.Fatalf("pending: scheduler %d oracle %d", h.Pending(), r.Pending())
		}
		hOK, rOK := h.Step(), r.Step()
		if hOK != rOK {
			t.Fatalf("step: scheduler %v oracle %v", hOK, rOK)
		}
		if !hOK {
			break
		}
		if h.Now() != r.Now() {
			t.Fatalf("clock: scheduler %v oracle %v", h.Now(), r.Now())
		}
		if h.Fired() != r.Fired() {
			t.Fatalf("fired: scheduler %d oracle %d", h.Fired(), r.Fired())
		}
	}
}

// FuzzSchedulerOracleEquivalence feeds arbitrary byte strings as
// operation scripts to both schedulers: each byte pair becomes a schedule
// (on a coarse timestamp grid, so ties are dense), a keyed schedule, a
// reseed or a cancel, and the two pop traces must match exactly.
func FuzzSchedulerOracleEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 254, 7, 7, 7, 9})
	f.Add([]byte{10, 0, 10, 0, 10, 0, 200, 200})
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0, 3, 5, 1, 4, 19, 0, 3, 3, 0, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzScript[*refItem](data, &refScheduler{})
		got := fuzzScript[Handle](data, NewScheduler())
		equalTraces(t, "fuzz", want, got)
	})
}

func fuzzScript[H any](data []byte, s orderScheduler[H]) []popRecord {
	var trace []popRecord
	var handles []H
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		tag := i
		ev := call(func(now Time) {
			trace = append(trace, popRecord{at: now, tag: tag})
		})
		switch op % 6 {
		case 0, 1: // schedule on a coarse grid: ties are the point
			handles = append(handles, s.Schedule(Time(arg%32)*Time(time.Second), ev))
		case 2: // far-future schedule (bounded to stay inside int64)
			handles = append(handles, s.Schedule(Time(arg)*1000*Time(time.Hour), ev))
		case 3: // cancel an arbitrary earlier handle, live or stale
			if len(handles) > 0 {
				s.Cancel(handles[int(arg)%len(handles)])
			}
		case 4: // keyed schedule on the same grid
			key := SeqKey{Epoch: uint64(arg >> 6), Pos: uint64(arg>>4) & 3}
			handles = append(handles, s.ScheduleKeyed(Time(arg%16)*Time(time.Second), key, ev))
		case 5: // reseed the implicit key
			s.Reseed(SeqKey{Epoch: uint64(arg >> 4), Pos: uint64(arg & 15)})
		}
		// Interleave pops with scheduling so slots are released and
		// reused while stale handles are still around.
		if arg%7 == 0 {
			s.Step()
		}
	}
	s.Run()
	return trace
}

// TestCancelAfterFireIsNoop: a fired event's handle reports Cancelled
// (already inside Fire) and cancelling it touches nothing.
func TestCancelAfterFireIsNoop(t *testing.T) {
	s := NewScheduler()
	var h Handle
	insideFire := false
	h = s.Schedule(time.Second, call(func(Time) { insideFire = h.Cancelled() }))
	other := 0
	s.Schedule(2*time.Second, call(func(Time) { other++ }))
	s.Step()
	if !insideFire {
		t.Fatal("handle not Cancelled while its event fires")
	}
	if !h.Cancelled() {
		t.Fatal("fired handle not Cancelled")
	}
	s.Cancel(h)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after cancelling a fired handle, want 1", s.Pending())
	}
	s.Run()
	if other != 1 {
		t.Fatalf("other event fired %d times, want 1", other)
	}
}

// TestDoubleCancelIsNoop: the second Cancel of one handle leaves the rest
// of the queue alone, even once the freed slot has been handed out again.
func TestDoubleCancelIsNoop(t *testing.T) {
	s := NewScheduler()
	h := s.Schedule(time.Second, call(func(Time) { t.Fatal("cancelled event fired") }))
	s.Cancel(h)
	s.Cancel(h)
	fired := 0
	h2 := s.Schedule(time.Second, call(func(Time) { fired++ }))
	s.Cancel(h)
	if h2.Cancelled() || s.Pending() != 1 {
		t.Fatalf("double cancel touched the slot's new occupant (pending %d)", s.Pending())
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("new occupant fired %d times, want 1", fired)
	}
}

// TestStaleHandleAfterReuse: handles to fired and cancelled events whose
// slots have since been reused must not cancel the new occupants.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := NewScheduler()
	var stale []Handle
	for i := 0; i < 8; i++ {
		stale = append(stale, s.Schedule(Time(i), call(func(Time) {})))
	}
	for _, h := range stale[:4] {
		s.Cancel(h)
	}
	s.Run() // fires the other four
	fired := 0
	var fresh []Handle
	for i := 0; i < 8; i++ {
		fresh = append(fresh, s.Schedule(time.Second, call(func(Time) { fired++ })))
	}
	if len(s.slots) != 8 {
		t.Fatalf("slab holds %d slots, want the 8 reused", len(s.slots))
	}
	for _, h := range stale {
		if !h.Cancelled() {
			t.Fatal("stale handle reports live")
		}
		s.Cancel(h)
	}
	for _, h := range fresh {
		if h.Cancelled() {
			t.Fatal("new occupant reports cancelled")
		}
	}
	s.Run()
	if fired != 8 {
		t.Fatalf("%d of 8 new occupants fired", fired)
	}
}

// TestForeignHandleIgnored: a handle minted by one scheduler cancels
// nothing on another, and the zero Handle refers to no event.
func TestForeignHandleIgnored(t *testing.T) {
	a, b := NewScheduler(), NewScheduler()
	ha := a.Schedule(time.Second, call(func(Time) {}))
	b.Schedule(time.Second, call(func(Time) {}))
	b.Cancel(ha)
	b.Cancel(Handle{})
	if b.Pending() != 1 || a.Pending() != 1 {
		t.Fatalf("pending a=%d b=%d, want 1 and 1", a.Pending(), b.Pending())
	}
	if !(Handle{}).Cancelled() {
		t.Fatal("zero handle reports live")
	}
}

// TestReleasedSlotDropsEvent: fired and cancelled events are not kept
// alive by the slab.
func TestReleasedSlotDropsEvent(t *testing.T) {
	s := NewScheduler()
	h := s.Schedule(time.Second, nopEvent)
	s.Schedule(2*time.Second, nopEvent)
	s.Cancel(h)
	s.Run()
	for i, sl := range s.slots {
		if sl.event.Handler != nil || sl.event.Ref != nil {
			t.Fatalf("released slot %d still references its event", i)
		}
	}
}

// TestSlabBoundedByPeak: a cancellation-heavy phase (the probe re-arm
// pattern: schedule, cancel, schedule, cancel …) reuses one slot instead
// of growing the slab, and PeakPending reports the true high-water mark.
func TestSlabBoundedByPeak(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		s.Schedule(Time(i)*time.Hour, call(func(Time) {}))
		if s.PeakPending() != i+1 {
			t.Fatalf("peak %d after %d schedules", s.PeakPending(), i+1)
		}
	}
	var h Handle
	for i := 0; i < 100000; i++ {
		s.Cancel(h)
		h = s.Schedule(Time(i)*time.Millisecond+15*time.Second, call(func(Time) {}))
	}
	if s.Pending() != 4 || s.PeakPending() != 4 {
		t.Fatalf("pending %d peak %d, want 4 and 4", s.Pending(), s.PeakPending())
	}
	if len(s.slots) != 4 || cap(s.heap) > 8 {
		t.Fatalf("slab %d slots, heap cap %d: storage grew past the peak", len(s.slots), cap(s.heap))
	}
	s.Run()
	if s.Fired() != 4 || s.PeakPending() != 4 {
		t.Fatalf("fired %d peak %d, want 4 and 4", s.Fired(), s.PeakPending())
	}
}

// TestSteadyStateAllocs: at the simulation's per-node operating depth
// (3 000 pending events) neither the hold pattern (pop, schedule a
// replacement) nor the churn pattern (schedule, cancel) allocates.
func TestSteadyStateAllocs(t *testing.T) {
	const n = 3000
	ev := nopEvent
	rng := rand.New(rand.NewPCG(3, 3000))
	mean := float64(30 * time.Second)
	s := NewScheduler()
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.ExpFloat64()*mean), ev)
	}
	hold := testing.AllocsPerRun(1000, func() {
		s.Step()
		s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), ev)
	})
	churn := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), ev))
	})
	if hold != 0 || churn != 0 {
		t.Fatalf("allocs per op: hold %v churn %v, want 0", hold, churn)
	}
	if s.Pending() != n {
		t.Fatalf("pending = %d, want %d", s.Pending(), n)
	}
}
