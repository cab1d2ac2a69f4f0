package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	p2pquery "repro"
	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/trace"
)

// fleetStream is the `analyze -simulate -stream` path as a batch job: the
// paper preset's 48-vantage fleet simulated by the streaming engine with
// the online sketches on the merged stream, then characterization and
// the full report. The simulation core does nearly all of the work.
type fleetStream struct {
	o    options
	size simSize
	// warm is the size of the warm-up run set-up makes.
	warm simSize
	rcs  [fleetInputs]p2pquery.RunConfig
	chks [fleetInputs]checker

	// The last traced pass's input, trace and characterization time,
	// which the layer decomposition reuses.
	lastInput int
	lastTrace *trace.Trace
	lastCharS float64
}

// fleetInputs is how many inputs a run rotates through: pass n simulates
// input n mod fleetInputs, the same fleet at its own seed. One input's
// cost depends on its seed (heavy-tailed session lengths move the
// scheduler-event count by several percent), so a median over passes of
// several inputs varies less from run to run than a single input would.
const fleetInputs = 3

// fleetGolden digests the trace, online snapshot and report of each input
// of the default seed at the full size.
var fleetGolden = [fleetInputs]string{
	"cb1cb1d1f6dd35127c55da01df5b94845ef700756e39eb803320af16f8b91d1f",
	"ee54b9d297c1b0d2b1332ed7e68e321061ca4145246120111f741830869f9862",
	"5956e672adffb60f2212b4e7871225612534e18dd891dc0c0b0e9f770e3a857b",
}

// inputSeed is the simulation seed of input j of a run at seed s.
func inputSeed(s uint64, j int) uint64 { return s*fleetInputs + uint64(j) }

func newFleetStream(o options) workload {
	f := &fleetStream{
		o:    o,
		size: simSize{scale: 0.05, days: 10, nodes: 48},
		warm: simSize{scale: 0.01, days: 10, nodes: 48},
	}
	if o.smoke {
		f.size = simSize{scale: 0.004, days: 2, nodes: 8}
		f.warm = simSize{scale: 0.001, days: 2, nodes: 8}
	}
	for j := range f.chks {
		f.chks[j].golden = golden(o, fleetGolden[j])
	}
	return f
}

func runConfig(seed uint64, sz simSize) (p2pquery.RunConfig, error) {
	c, err := paperConfig(seed, sz)
	if err != nil {
		return p2pquery.RunConfig{}, err
	}
	return p2pquery.RunConfig{Sim: c.Sim, Nodes: c.Nodes, Stream: c.Stream, Online: c.Stream}, nil
}

// setup compiles the inputs' run configurations and makes one small
// warm-up run of the whole pipeline, so the first measured pass does not
// also pay the process's first heap growth.
func (f *fleetStream) setup() error {
	warm, err := runConfig(inputSeed(f.o.seed, 0), f.warm)
	if err != nil {
		return err
	}
	res, err := p2pquery.Run(warm)
	if err != nil {
		return err
	}
	if err := report.RenderAll(&bytes.Buffer{}, core.CharacterizeOpts(res.Trace, core.Options{})); err != nil {
		return err
	}
	for j := range f.rcs {
		if f.rcs[j], err = runConfig(inputSeed(f.o.seed, j), f.size); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetStream) pass(n int, t *tracer) (func() error, error) {
	j := n % fleetInputs
	var tr *trace.Trace
	var snap stream.Snapshot
	if t == nil {
		res, err := p2pquery.Run(f.rcs[j])
		if err != nil {
			return nil, err
		}
		tr, snap = res.Trace, *res.Online
	} else {
		tr, snap = f.tracedRun(t, f.rcs[j])
	}
	var c *core.Characterization
	charS := t.time(t.root(), "core.CharacterizeOpts", func() { c = core.CharacterizeOpts(tr, core.Options{}) })
	var rep bytes.Buffer
	var err error
	t.set("report.render_s", t.time(t.root(), "report.RenderAll", func() { err = report.RenderAll(&rep, c) }))
	if err != nil {
		return nil, err
	}
	if t != nil {
		f.lastInput, f.lastTrace, f.lastCharS = j, tr, charS
	}
	return func() error { return f.verify(&f.chks[j], tr, snap, rep.Bytes()) }, nil
}

// tracedRun is p2pquery.Run's streaming path with the engine called
// directly, so the sink into the online layer can be timed and the
// engine's registry read.
func (f *fleetStream) tracedRun(t *tracer, rc p2pquery.RunConfig) (*trace.Trace, stream.Snapshot) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{
		Fleet: capture.FleetConfig{Node: rc.Sim, Nodes: rc.Nodes},
		Obs:   &obs.Observer{Metrics: reg},
	})
	online := stream.NewOnline(stream.OnlineConfig{})
	online.Register(reg)
	sink := &timedSink{next: online}
	var tr *trace.Trace
	runS := t.time(t.root(), "engine.RunStream", func() {
		sink.start = time.Now()
		tr = eng.RunStream(sink)
	})
	var snap stream.Snapshot
	t.time(t.root(), "stream.Online.Snapshot", func() { snap = online.Snapshot(10) })

	events := reg.Value("engine_sched_events_total", 0)
	t.set("engine.run_s", runS)
	t.set("engine.sched_events", events)
	t.set("engine.sched_events_max_node", reg.Value("engine_sched_events_max_node", 0))
	t.set("engine.sched_events_per_s", events/runS)
	t.set("engine.first_session_s", sink.first.Seconds())
	t.set("stream.peak_pending", reg.Value("merge_peak_pending", 0))
	t.set("stream.spilled", reg.Value("merge_spilled_total", 0))
	t.set("stream.sink_s", sink.busy.Seconds())
	if p99, ok := percentile(sink.gaps, 0.99); ok {
		t.set("stream.emit_gap_p99_ms", p99)
	}
	return tr, snap
}

func (f *fleetStream) verify(chk *checker, tr *trace.Trace, snap stream.Snapshot, rep []byte) error {
	if snap.Sessions != uint64(len(tr.Conns)) {
		return fmt.Errorf("%w: online layer saw %d sessions, trace holds %d", errMismatch, snap.Sessions, len(tr.Conns))
	}
	th, err := traceDigest(tr)
	if err != nil {
		return err
	}
	sj, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return chk.check(bytesDigest([]byte(th + "\n" + string(sj) + "\n" + string(rep))))
}

func (f *fleetStream) layers(t *tracer) error {
	if f.lastTrace == nil {
		return fmt.Errorf("no traced pass completed to decompose")
	}
	gen := behavior.NewGenerator(f.rcs[f.lastInput].Sim.Workload)
	t.set("behavior.gen_s", t.time(t.root(), "behavior.Generator drain", func() {
		for gen.Next() != nil {
		}
	}))
	characterizeLayers(t, f.lastTrace, 0, f.lastCharS)
	return nil
}

func (f *fleetStream) close() {}

// timedSink wraps the online layer's Sink: it times the calls into it,
// the host time until the first merged session retires, and the gaps
// between retirements (the merge waiting on its slowest node).
type timedSink struct {
	next  stream.Sink
	start time.Time
	first time.Duration
	last  time.Time
	busy  time.Duration
	gaps  []float64 // ms
	n     int
}

func (s *timedSink) MergedSession(c *trace.Conn, qs []trace.Query) {
	t0 := time.Now()
	if s.n == 0 {
		s.first = t0.Sub(s.start)
	} else {
		s.gaps = append(s.gaps, float64(t0.Sub(s.last))/1e6)
	}
	s.next.MergedSession(c, qs)
	s.last = time.Now()
	s.busy += s.last.Sub(t0)
	s.n++
}
