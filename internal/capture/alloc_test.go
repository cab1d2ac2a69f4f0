package capture

import (
	"testing"

	"repro/internal/behavior"
	"repro/internal/simtime"
)

// maxAllocsPerEvent bounds the vantage event loop's heap allocations per
// fired event. Events are tagged values in the scheduler's slab, so what
// remains is per session (the connection, trace-record growth) and per
// hop-1 query (its keyword key): about 0.09 per event on this test's run,
// against 3.1 when every event was a closure and each message a boxed
// envelope. The bound leaves headroom over the measurement yet fails if
// a single closure returns to the probe re-arm.
const maxAllocsPerEvent = 0.25

// TestVantageEventLoopAllocs runs one vantage over a day of arrivals
// (scale 0.01, seed 2004) and bounds its allocations per fired event, so
// a per-event closure or boxed message creeping back into the event loop
// fails here rather than only in a benchmark. The arrivals are generated
// up front and fed straight to the node, so only the event loop is
// measured.
func TestVantageEventLoopAllocs(t *testing.T) {
	cfg := DefaultConfig(2004, 0.01)
	cfg.Workload.Days = 1
	gen := behavior.NewGenerator(cfg.Workload)
	shared := NewSharedModel(gen)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil; s = gen.Next() {
		sessions = append(sessions, s)
	}
	horizon := simtime.Time(cfg.Workload.Days) * simtime.Day
	var fired uint64
	allocs := testing.AllocsPerRun(1, func() {
		sched := simtime.NewScheduler()
		n := NewNode(cfg, 0, sched, shared)
		for _, s := range sessions {
			sched.RunUntil(s.Start)
			n.Arrive(s.Start, s)
		}
		sched.RunUntil(horizon)
		n.FinalizeOpen(horizon)
		fired = sched.Fired()
	})
	if fired < 10000 {
		t.Fatalf("only %d events fired; the run is too small to measure", fired)
	}
	perEvent := allocs / float64(fired)
	t.Logf("%.0f allocs over %d events: %.4f per event", allocs, fired, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("%.4f allocs per fired event, want ≤ %g", perEvent, maxAllocsPerEvent)
	}
}
