package simtime

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// The scheduler benchmarks measure HeapScheduler across the pending-event
// counts the simulation sees: 1e3–3e3 is where fleet nodes peak (the
// engine's engine_sched_depth_max gauge reads about 1.7 k on the 4-node
// smoke run and about 6 k for fleet-stream's busiest node), and 1e4–1e7
// reaches toward a single queue holding a full-volume run. Two access patterns matter:
//
//   - Hold (classic priority-queue benchmark): pop the earliest event and
//     schedule a replacement an exponential increment later, at steady
//     queue size n. This is the simulator's steady state.
//   - Churn: schedule then cancel, the probe re-arm pattern.
//
// The sub-benchmark name "heap" is kept from the binary-heap scheduler
// this one replaced, so obs-overhead keeps comparing the 1e4–1e7 rows
// against the committed BENCH_pr6.json; BENCH_pr13.json is the first
// snapshot of the 4-ary slab heap and BENCH_pr14.json the first with
// tagged events.

type nopHandler struct{}

func (nopHandler) Fire(Time, Event) {}

// nopEvent is a tagged event whose Ref holds a pointer, the shape the
// capture vantage schedules.
var nopEvent = Event{Handler: nopHandler{}, Kind: 1, Arg: 7, Ref: new(int)}

func benchHold(b *testing.B, n int) {
	s := NewScheduler()
	rng := rand.New(rand.NewPCG(uint64(n), 0xbe_c4))
	// Mean inter-event spacing mirrors the capture workload: tens of
	// seconds between a connection's events.
	mean := float64(30 * time.Second)
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.ExpFloat64()*mean), nopEvent)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("queue drained")
		}
		s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), nopEvent)
	}
}

func benchChurn(b *testing.B, n int) {
	s := NewScheduler()
	rng := rand.New(rand.NewPCG(uint64(n), 0xc4_be))
	mean := float64(30 * time.Second)
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.ExpFloat64()*mean), nopEvent)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), nopEvent)
		s.Cancel(h)
	}
}

func schedulerSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{3e3}
	}
	return []int{1e3, 3e3, 1e4, 1e5, 1e6, 1e7}
}

func BenchmarkSchedulerHold(b *testing.B) {
	for _, n := range schedulerSizes(b) {
		b.Run(fmt.Sprintf("heap/n=%.0e", float64(n)), func(b *testing.B) {
			benchHold(b, n)
		})
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	for _, n := range schedulerSizes(b) {
		b.Run(fmt.Sprintf("heap/n=%.0e", float64(n)), func(b *testing.B) {
			benchChurn(b, n)
		})
	}
}
