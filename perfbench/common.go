package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// simSize is a simulation's size: arrival-volume scale (1.0 is the
// paper's 4.36 M connections over 40 days), measured days and vantage
// nodes.
type simSize struct {
	scale float64
	days  int
	nodes int
}

// paperConfig compiles the paper preset (paper40d: the paper-calibrated
// model, streaming engine) at the given seed and size.
func paperConfig(seed uint64, sz simSize) (*scenario.Compiled, error) {
	base, err := scenario.Preset("paper40d")
	if err != nil {
		return nil, err
	}
	over := &scenario.Spec{Version: scenario.SchemaVersion, Sim: scenario.SimSpec{
		Seed: &seed, Scale: &sz.scale, Days: &sz.days, Nodes: &sz.nodes,
	}}
	return scenario.Compile(scenario.Merge(base, over))
}

// golden returns the digest pinned for a workload at the default seed and
// full size, or "" where none applies.
func golden(o options, digest string) string {
	if o.smoke || o.seed != defaultSeed {
		return ""
	}
	return digest
}

func traceDigest(tr *trace.Trace) (string, error) {
	h, err := tr.Hash()
	if err != nil {
		return "", fmt.Errorf("hashing trace: %w", err)
	}
	return hex.EncodeToString(h[:]), nil
}

func bytesDigest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// characterizeLayers splits characterization into its layers at one
// worker, so each layer's time is its own work, not a share of a pool:
// the filter, enrichment, the 14 figure computations, then the whole
// asymptotic characterization (fits are what it spends beyond the first
// three) and, with boot > 0, the bootstrap one (the bootstrap KS
// verdicts are what it spends beyond the asymptotic one). parallelS is
// the pass's own characterization time at the default worker count, the
// base of core.parallel_speedup.
func characterizeLayers(t *tracer, tr *trace.Trace, boot int, parallelS float64) {
	p := t.root()
	var res *filter.Result
	filterS := t.time(p, "filter.ApplyOpts workers=1", func() {
		res = filter.ApplyOpts(tr, filter.Options{Workers: 1})
	})
	var ss []analysis.Session
	enrichS := t.time(p, "analysis.EnrichWorkers workers=1", func() {
		ss = analysis.EnrichWorkers(res, 1)
	})
	figs := t.begin(p, "analysis.Compute* (14)")
	for _, f := range []struct {
		name string
		fn   func()
	}{
		{"ComputeTable1", func() { analysis.ComputeTable1(tr) }},
		{"ComputeFigure1", func() { analysis.ComputeFigure1(tr) }},
		{"ComputeFigure2", func() { analysis.ComputeFigure2(tr) }},
		{"ComputeFigure3", func() { analysis.ComputeFigure3(ss) }},
		{"ComputeFigure4", func() { analysis.ComputeFigure4(ss) }},
		{"ComputeFigure5", func() { analysis.ComputeFigure5(ss) }},
		{"ComputeFigure6", func() { analysis.ComputeFigure6(ss) }},
		{"ComputeFigure7", func() { analysis.ComputeFigure7(ss) }},
		{"ComputeFigure8", func() { analysis.ComputeFigure8(ss) }},
		{"ComputeFigure9", func() { analysis.ComputeFigure9(ss) }},
		{"ComputeFigure10", func() { analysis.ComputeFigure10(ss, tr.Days, geo.NorthAmerica) }},
		{"ComputeFigure11", func() { _, _ = analysis.ComputeFigure11(ss, tr.Days) }},
		{"ComputeTable3", func() { analysis.ComputeTable3(ss, tr.Days) }},
		{"ComputeHitRates", func() { analysis.ComputeHitRates(tr) }},
	} {
		t.time(figs, "analysis."+f.name, f.fn)
	}
	figuresS := t.end(figs)
	asymS := t.time(p, "core.CharacterizeOpts workers=1", func() {
		core.CharacterizeOpts(tr, core.Options{Workers: 1})
	})
	t.set("filter.apply_s", filterS)
	t.set("analysis.enrich_s", enrichS)
	t.set("analysis.figures_s", figuresS)
	t.set("core.fits_s", asymS-filterS-enrichS-figuresS)
	oneS := asymS
	if boot > 0 {
		oneS = t.time(p, "core.CharacterizeOpts workers=1 ksboot", func() {
			core.CharacterizeOpts(tr, core.Options{Workers: 1, KSBootstrap: boot})
		})
		t.set("dist.bootstrap_s", oneS-asymS)
	}
	if parallelS > 0 {
		t.set("core.parallel_speedup", oneS/parallelS)
	}
}
