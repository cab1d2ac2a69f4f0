package main

import (
	"bytes"
	"os"
	"path/filepath"

	p2pquery "repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
)

// reanalyzeBoot is the `analyze -ksboot 99 trace.bin` path as a batch
// job: decode a saved trace, characterize it with parametric-bootstrap KS
// verdicts, render the report. Nothing is simulated in the pass; the
// dist layer's fits and bootstrap do most of the work.
type reanalyzeBoot struct {
	o    options
	size simSize
	boot int
	// dir and path hold the trace set-up wrote.
	dir, path string
	chk       checker

	// lastCharS is the last traced pass's characterization time, the
	// base of core.parallel_speedup.
	lastCharS float64
}

// reanalyzeGolden is the SHA-256 of the report of the default seed at the
// full size.
const reanalyzeGolden = "74def4e4eac18399e3a7b49851d40f9f382f69411d588543edd3428a3cee2635"

func newReanalyzeBoot(o options) workload {
	r := &reanalyzeBoot{o: o, size: simSize{scale: 0.05, days: 10, nodes: 48}, boot: 99}
	if o.smoke {
		r.size, r.boot = simSize{scale: 0.004, days: 2, nodes: 8}, 20
	}
	r.chk.golden = golden(o, reanalyzeGolden)
	return r
}

// setup simulates a trace and writes it to a file of its own.
func (r *reanalyzeBoot) setup() error {
	r.close()
	c, err := paperConfig(r.o.seed, r.size)
	if err != nil {
		return err
	}
	res, err := p2pquery.Run(p2pquery.RunConfig{Sim: c.Sim, Nodes: c.Nodes, Stream: c.Stream})
	if err != nil {
		return err
	}
	if r.dir, err = os.MkdirTemp(r.o.dir, "reanalyze-"); err != nil {
		return err
	}
	r.path = filepath.Join(r.dir, "trace.bin")
	return res.Trace.WriteFile(r.path)
}

func (r *reanalyzeBoot) pass(_ int, t *tracer) (func() error, error) {
	var tr *trace.Trace
	var err error
	t.set("trace.read_s", t.time(t.root(), "trace.ReadFile", func() { tr, err = trace.ReadFile(r.path) }))
	if err != nil {
		return nil, err
	}
	var c *core.Characterization
	charS := t.time(t.root(), "core.CharacterizeOpts ksboot", func() {
		c = core.CharacterizeOpts(tr, core.Options{KSBootstrap: r.boot})
	})
	var rep bytes.Buffer
	t.set("report.render_s", t.time(t.root(), "report.RenderAll", func() { err = report.RenderAll(&rep, c) }))
	if err != nil {
		return nil, err
	}
	if t != nil {
		r.lastCharS = charS
		st, err := os.Stat(r.path)
		if err != nil {
			return nil, err
		}
		t.set("trace.file_mb", float64(st.Size())/1e6)
	}
	return func() error { return r.chk.check(bytesDigest(rep.Bytes())) }, nil
}

func (r *reanalyzeBoot) layers(t *tracer) error {
	var tr *trace.Trace
	var err error
	t.time(t.root(), "trace.ReadFile", func() { tr, err = trace.ReadFile(r.path) })
	if err != nil {
		return err
	}
	characterizeLayers(t, tr, r.boot, r.lastCharS)
	return nil
}

func (r *reanalyzeBoot) close() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir, r.path = "", ""
	}
}
