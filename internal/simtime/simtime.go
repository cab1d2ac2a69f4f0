// Package simtime provides the virtual clock and discrete-event scheduler
// that drive the measurement simulation.
//
// Simulated time is a time.Duration measured from the trace epoch. The
// paper's trace began 2004-03-15 at the measurement node in Dortmund; Epoch
// pins that instant so absolute timestamps and day/hour bins are
// well-defined. Nothing in the simulator reads the wall clock, which makes
// runs byte-for-byte reproducible.
//
// The scheduler is HeapScheduler, a 4-ary min-heap of small value entries
// whose event payloads live in a slab of reusable slots: at steady state
// scheduling, cancelling and firing allocate nothing, and the heap and
// slab grow only with the peak number of pending events.
package simtime

import "time"

// Epoch is the instant at which the trace starts: 2004-03-15 00:00 local
// time at the measurement node (CET, UTC+1 in mid-March 2004).
var Epoch = time.Date(2004, time.March, 15, 0, 0, 0, 0, time.FixedZone("CET", 3600))

// Time is an instant of simulated time, expressed as the offset from Epoch.
type Time = time.Duration

// Day and related constants express the diurnal structure of the paper's
// analysis bins.
const (
	Day      = 24 * time.Hour
	HalfHour = 30 * time.Minute
)

// Absolute converts a simulated instant to an absolute wall-clock time.
func Absolute(t Time) time.Time { return Epoch.Add(t) }

// HourOfDay returns the hour bin [0,24) of the instant, in measurement-node
// local time — the x-axis of every diurnal figure in the paper.
func HourOfDay(t Time) int {
	return int((t % Day) / time.Hour)
}

// HalfHourOfDay returns the 30-minute bin [0,48) of the instant, used by
// Figure 3.
func HalfHourOfDay(t Time) int {
	return int((t % Day) / HalfHour)
}

// DayIndex returns the zero-based trace day containing the instant.
func DayIndex(t Time) int { return int(t / Day) }

// At builds a simulated instant from a day index and a time of day.
func At(day int, hour, min, sec int) Time {
	return Time(day)*Day + Time(hour)*time.Hour + Time(min)*time.Minute + Time(sec)*time.Second
}

// Event is a scheduled callback. Fire runs at the scheduled instant with the
// scheduler's current time.
type Event interface {
	Fire(now Time)
}

// EventFunc adapts a function to the Event interface.
type EventFunc func(now Time)

// Fire implements Event.
func (f EventFunc) Fire(now Time) { f(now) }

// SeqKey is an event's equal-timestamp tie-break rank: among events with
// the same timestamp, smaller keys fire first (lexicographically by
// Epoch, then Pos; insertion order breaks exact key collisions). The
// zero scheduler assigns implicit keys {0, 0}, {0, 1}, {0, 2}, … in
// Schedule-call order, which is plain FIFO — callers that never touch
// keys see exactly the historical (timestamp, FIFO) contract. Two
// extensions exist for callers that need a fire order agreed on across
// schedulers (the sharded engine's determinism contract): ScheduleKeyed
// plants an event at an explicit rank, and Reseed repositions the
// implicit counter so subsequent Schedule calls rank relative to a
// caller-chosen point.
type SeqKey struct {
	Epoch uint64
	Pos   uint64
}

// Less reports whether k ranks strictly before o.
func (k SeqKey) Less(o SeqKey) bool {
	if k.Epoch != o.Epoch {
		return k.Epoch < o.Epoch
	}
	return k.Pos < o.Pos
}

// FireHook observes each event just before it fires, with the clock
// already advanced to the event's timestamp and the event's tie-break
// key. See Scheduler.SetFireHook.
type FireHook func(at Time, key SeqKey)

// Scheduler is the discrete-event scheduler API: a virtual clock plus a
// pending-event queue ordered by (timestamp, sequence key, insertion).
// That order is total, so it fixes the fire sequence completely, ties
// included. HeapScheduler is the one implementation; the package tests
// pin it against a pointer-based container/heap oracle by property and
// fuzz tests. It is not safe for concurrent use; the simulation gives
// each event loop its own scheduler so a given seed always produces an
// identical event order.
type Scheduler interface {
	// Now returns the current simulated time.
	Now() Time
	// Fired returns how many events have been executed.
	Fired() uint64
	// Scheduled returns how many events have been queued over the
	// scheduler's lifetime (fired, pending and cancelled alike) — the
	// per-node work metric the engine's scaling contract is stated in.
	Scheduled() uint64
	// Pending returns the number of scheduled events not yet fired or
	// cancelled.
	Pending() int
	// PeakPending returns the high-water mark of Pending over the
	// scheduler's lifetime — the event-loop depth the queue was sized by.
	PeakPending() int
	// Schedule queues an event at an absolute simulated instant.
	// Scheduling in the past (before Now) fires the event at the current
	// time rather than rewinding the clock. The event's tie-break key is
	// the current implicit key, which then advances by one Pos — absent
	// Reseed/ScheduleKeyed, events with equal timestamps fire in Schedule
	// order (FIFO), which keeps runs deterministic.
	Schedule(at Time, e Event) Handle
	// ScheduleKeyed queues an event with an explicit tie-break key,
	// leaving the implicit key untouched. Equal (timestamp, key) pairs
	// fall back to insertion order.
	ScheduleKeyed(at Time, key SeqKey, e Event) Handle
	// Reseed repositions the implicit key: the next Schedule call uses
	// exactly key, the one after key with Pos+1, and so on.
	Reseed(key SeqKey)
	// SetFireHook installs a callback invoked immediately before every
	// event's Fire, after the clock has advanced to the event's
	// timestamp. The hook may call Reseed (the engine's keyed tie-break
	// cursor lives there); it must not schedule or cancel events. A nil
	// hook removes it.
	SetFireHook(h FireHook)
	// After queues an event delay after the current instant.
	After(delay time.Duration, e Event) Handle
	// Cancel removes a scheduled event. Cancelling an already-fired or
	// already-cancelled event is a no-op.
	Cancel(h Handle)
	// Step fires the earliest pending event, advancing the clock to its
	// timestamp. It reports false when no events remain.
	Step() bool
	// RunUntil fires events in order until the queue is empty or the next
	// event lies strictly after the horizon. The clock finishes at the
	// horizon (or at the last event, whichever is later).
	RunUntil(horizon Time)
	// Run drains the event queue completely.
	Run()
}
