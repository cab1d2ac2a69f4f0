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
// whose events — a Handler plus a value tag, never a per-event closure —
// live in a slab of reusable slots: at steady state scheduling,
// cancelling and firing allocate nothing, and the heap and slab grow only
// with the peak number of pending events.
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

// Handler fires scheduled events. A handler that serves several kinds of
// event dispatches on the fired Event's Kind.
type Handler interface {
	Fire(now Time, ev Event)
}

// Event is one scheduled event: the handler that fires it plus a small
// value tag — a kind, a reference and one integer argument — that tells
// the handler what to do. The scheduler stores events by value in its
// slab, so a long-lived handler serving many events (a capture vantage,
// the engine's arrival runner) schedules them without allocating: Ref
// holds a pointer, which an interface stores without boxing.
type Event struct {
	Handler Handler
	Kind    uint8
	Arg     int64
	Ref     any
}

// EventFunc adapts a function to Handler; the event's tag is ignored.
// Each EventFunc is a closure, so the adapter suits tests and one-off
// events, not per-event hot paths.
type EventFunc func(now Time)

// Fire implements Handler.
func (f EventFunc) Fire(now Time, _ Event) { f(now) }

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
// key. See HeapScheduler.SetFireHook.
type FireHook func(at Time, key SeqKey)
