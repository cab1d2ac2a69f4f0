package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ingestReplay is a closed loop with two clients: the recorded event
// streams of a 2-node fleet's two vantages are replayed through two
// ingest.Emitters over loopback TCP into one ingest.Collector, each
// emitter held back by its own unacked window, until the collector has
// drained the merged trace. The wire codec, the collector and the merge
// do all of the work; nothing is simulated in the pass.
type ingestReplay struct {
	o    options
	size simSize
	cfg  engine.Config
	// batches holds each input's recorded stream. Passes only read it:
	// the emitters copy events into frames and the in-process merge
	// copies records out, so every pass replays the same inputs.
	batches [][]stream.Batch
	events  int
	chk     checker
	// inProcess is the digest of in-process RunStream over the same
	// fleet, computed once at the default seed.
	inProcess string
}

// ingestGolden is the drained trace's SHA-256 at the default seed and full
// size.
const ingestGolden = "9710b836306226a7230516dc9d5e0fdb324b2772302549faf16935a609c4c65e"

// ingestInputs is the fleet size: one emitter connection per vantage.
const ingestInputs = 2

func newIngestReplay(o options) workload {
	w := &ingestReplay{o: o, size: simSize{scale: 0.05, days: 10, nodes: ingestInputs}}
	if o.smoke {
		w.size = simSize{scale: 0.004, days: 2, nodes: ingestInputs}
	}
	w.chk.golden = golden(o, ingestGolden)
	return w
}

// setup records each vantage's event stream with engine.NodeStream, the
// emitter processes' entry point, into per-input batch lists.
func (w *ingestReplay) setup() error {
	c, err := paperConfig(w.o.seed, w.size)
	if err != nil {
		return err
	}
	w.cfg = engine.Config{Fleet: capture.FleetConfig{Node: c.Sim, Nodes: ingestInputs}}
	batches := make([][]stream.Batch, ingestInputs)
	errs := make([]error, ingestInputs)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The collecting goroutine only appends, so it keeps up; the
			// buffer (a merger's per-input share, 4) smooths hand-off.
			ch := make(chan stream.Batch, 4)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for b := range ch {
					batches[i] = append(batches[i], b)
				}
			}()
			_, errs[i] = engine.NodeStream(w.cfg, i, stream.NewProducer(i, ch))
			close(ch)
			<-done
		}()
	}
	wg.Wait()
	w.batches, w.events = batches, 0
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("recording vantage %d: %w", i, err)
		}
		for _, b := range batches[i] {
			w.events += len(b.Events)
		}
	}
	return nil
}

func (w *ingestReplay) pass(_ int, t *tracer) (func() error, error) {
	var ob *obs.Observer
	var reg *obs.Registry
	var frames, wrote atomic.Int64
	var dial func(string, time.Duration) (net.Conn, error)
	if t != nil {
		reg = obs.NewRegistry()
		ob = &obs.Observer{Metrics: reg}
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, frames: &frames, bytes: &wrote}, nil
		}
	}
	// Only the emitters get the observer: they hold the ack round-trip
	// histograms and reconnect counters read below, and instrumenting
	// the collector's merge too would add tracing cost to the layer
	// being measured.
	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs: ingestInputs,
		Window: trace.Time(engine.DefaultMergeWindow),
	})
	if err != nil {
		return nil, err
	}
	ems := make([]*ingest.Emitter, ingestInputs)
	errs := make([]error, ingestInputs)
	var blocked [ingestInputs]time.Duration
	var wg sync.WaitGroup
	for i := range ems {
		ems[i] = ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: i, Dial: dial, Obs: ob})
		wg.Add(2)
		go func() {
			defer wg.Done()
			id := t.begin(t.root(), "ingest.Emitter.Run")
			errs[i] = ems[i].Run()
			t.end(id)
		}()
		go func() {
			defer wg.Done()
			blocked[i] = feed(ems[i].Intake(), w.batches[i])
			close(ems[i].Intake())
		}()
	}
	var tr *trace.Trace
	drainS := t.time(t.root(), "ingest.Collector.Run", func() { tr, err = col.Run() })
	// The merge is complete, so every event has been applied; an emitter
	// still running only awaits its final ack.
	for _, em := range ems {
		em.Stop()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("emitter %d: %w", i, e)
		}
	}
	if t != nil {
		ev := float64(w.events)
		t.set("ingest.drain_s", drainS)
		t.set("ingest.events_per_s", ev/drainS)
		t.set("ingest.intake_blocked_s", sumDurations(blocked[:]))
		t.set("ingest.frames", float64(frames.Load()))
		t.set("ingest.bytes_per_event", float64(wrote.Load())/ev)
		upper, cum, err := histogram(reg, "ingest_ack_rtt_seconds")
		if err != nil {
			return nil, err
		}
		if p50, ok := histQuantile(upper, cum, 0.50); ok {
			t.set("ingest.ack_rtt_p50_ms", 1e3*p50)
		}
		if p99, ok := histQuantile(upper, cum, 0.99); ok {
			t.set("ingest.ack_rtt_p99_ms", 1e3*p99)
		}
		t.set("ingest.reconnects", sumSamples(reg, "emitter_reconnects_total"))
	}
	dead, lost := col.DeadInputs(), col.LostSessions()
	return func() error {
		if dead != 0 || lost != 0 {
			return fmt.Errorf("%w: collector evicted %d inputs and lost %d sessions", errMismatch, dead, lost)
		}
		return w.verify(tr)
	}, nil
}

func (w *ingestReplay) verify(tr *trace.Trace) error {
	got, err := traceDigest(tr)
	if err != nil {
		return err
	}
	if w.o.seed == defaultSeed {
		if w.inProcess == "" {
			ref := engine.New(w.cfg).RunStream(nil)
			if w.inProcess, err = traceDigest(ref); err != nil {
				return err
			}
		}
		if got != w.inProcess {
			return fmt.Errorf("%w: drained trace %s, in-process RunStream %s", errMismatch, got, w.inProcess)
		}
	}
	return w.chk.check(got)
}

// layers replays the recorded streams into an in-process stream.Merger:
// the merge layer alone, fed from memory instead of the network. Its
// trace must still equal the passes' — the recorded batches were not
// changed by replaying them.
func (w *ingestReplay) layers(t *tracer) error {
	m := stream.NewMerger(ingestInputs, nil)
	m.SetWindow(trace.Time(engine.DefaultMergeWindow))
	var blocked [ingestInputs]time.Duration
	var wg sync.WaitGroup
	var tr *trace.Trace
	t.set("stream.merge_s", t.time(t.root(), "stream.Merger.Run", func() {
		for i := range w.batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocked[i] = feed(m.Intake(), w.batches[i])
			}()
		}
		tr = m.Run()
		wg.Wait()
	}))
	t.set("stream.merge_intake_blocked_s", sumDurations(blocked[:]))
	return w.verify(tr)
}

func (w *ingestReplay) close() {}

// feed sends one input's batches in order and returns the time spent
// blocked in the sends: the backpressure the receiver applied.
func feed(ch chan<- stream.Batch, batches []stream.Batch) time.Duration {
	var blocked time.Duration
	for _, b := range batches {
		t0 := time.Now()
		ch <- b
		blocked += time.Since(t0)
	}
	return blocked
}

func sumDurations(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds()
}

// countingConn counts an emitter's writes. The ingest wire writes each
// frame with a single Write, so writes are frames.
type countingConn struct {
	net.Conn
	frames, bytes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.frames.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// histogram reads a histogram family from the registry's Prometheus
// exposition, summed over its label sets: upper bounds (without +Inf)
// and cumulative counts (with +Inf last).
func histogram(reg *obs.Registry, name string) ([]float64, []uint64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, nil, err
	}
	byLE := map[float64]uint64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, `"}`)
		sp := strings.LastIndexByte(line, ' ')
		if i < 0 || j < i || sp < j {
			return nil, nil, fmt.Errorf("unparsable bucket line %q", line)
		}
		le, err := strconv.ParseFloat(line[i+4:j], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bucket line %q: %w", line, err)
		}
		n, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bucket line %q: %w", line, err)
		}
		byLE[le] += n
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les) // +Inf sorts last
	var upper []float64
	var cum []uint64
	for _, le := range les {
		if !math.IsInf(le, 1) {
			upper = append(upper, le)
		}
		cum = append(cum, byLE[le])
	}
	return upper, cum, nil
}

// sumSamples sums every label set of a counter or gauge family.
func sumSamples(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, s := range reg.Samples() {
		if s.Name == name || strings.HasPrefix(s.Name, name+"{") {
			sum += s.Value
		}
	}
	return sum
}
