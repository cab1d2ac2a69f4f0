package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The quartiles must equal Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by; the wants were computed
// with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3.2, 1.0}, 0.45, 3.75},
		{[]float64{6.87, 6.95, 7.01, 6.90}, 6.8775, 6.995},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, want 7, 7", q1, q3)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, reported (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be reported")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, reported", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must not be reported")
	}
}

func TestHistQuantile(t *testing.T) {
	upper := []float64{1, 2, 4}
	// 100 observations: 10 in (0,1], 40 in (1,2], 40 in (2,4], 10 above 4.
	cum := []uint64{10, 50, 90, 100}
	if v, ok := histQuantile(upper, cum, 0.5); !ok || !near(v, 2) {
		t.Errorf("p50 = %v, %v; want 2", v, ok)
	}
	if v, ok := histQuantile(upper, cum, 0.3); !ok || !near(v, 1.5) {
		t.Errorf("p30 = %v, %v; want 1.5 (interpolated)", v, ok)
	}
	if v, ok := histQuantile(upper, cum, 0.9); !ok || !near(v, 4) {
		t.Errorf("p90 = %v, %v; want 4", v, ok)
	}
	if _, ok := histQuantile(upper, cum, 0.95); ok {
		t.Error("p95 of 100 observations has 5 beyond it and must not be reported")
	}
	if _, ok := histQuantile(upper, []uint64{0, 0, 0, 0}, 0.5); ok {
		t.Error("an empty histogram must not report a quantile")
	}
}

func TestCheckerGolden(t *testing.T) {
	c := checker{golden: "aa"}
	if err := c.check("aa"); err != nil {
		t.Fatal(err)
	}
	if err := c.check("bb"); !errors.Is(err, errMismatch) {
		t.Fatalf("digest differing from golden: err = %v, want errMismatch", err)
	}
}

func TestCheckerPassToPass(t *testing.T) {
	var c checker
	for _, d := range []string{"x", "x"} {
		if err := c.check(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.check("y"); !errors.Is(err, errMismatch) {
		t.Fatalf("digest differing from the first pass: err = %v, want errMismatch", err)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.record(nil)
	for i := 0; i < maxKeptErrs+2; i++ {
		tl.record(errMismatch)
	}
	tl.record(nil)
	if tl.attempted != maxKeptErrs+4 || tl.failed != maxKeptErrs+2 {
		t.Fatalf("attempted %d failed %d", tl.attempted, tl.failed)
	}
	if len(tl.errs) != maxKeptErrs {
		t.Fatalf("kept %d messages, want %d", len(tl.errs), maxKeptErrs)
	}
	if want := float64(maxKeptErrs+2) / float64(maxKeptErrs+4); !near(tl.errorRate(), want) {
		t.Fatalf("error rate %v, want %v", tl.errorRate(), want)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{{Start: 1, End: 4}, {Start: 3, End: 6}, {Start: 8, End: 12}}
	// Children cover [1,6] and [8,10] of the parent: 7 of its 10 s.
	if got := selfTime(parent, kids); !near(got, 3) {
		t.Fatalf("self time %v, want 3", got)
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func smokeOptions(t *testing.T, name string, traced bool) options {
	return options{workload: name, seed: 7, seconds: 100 * time.Millisecond, traced: traced, smoke: true, dir: t.TempDir()}
}

// TestSmokeRuns runs every workload at the smoke size, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json promises.
func TestSmokeRuns(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(smokeOptions(t, name, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, %v", name, traced, m.name, v, ok)
				}
			}
		}
	}
}

// TestFailedChecksAreCounted gives a workload a golden digest its output
// cannot match: every pass must be counted as failed, and the run must
// still finish with a result.
func TestFailedChecksAreCounted(t *testing.T) {
	o := smokeOptions(t, "reanalyze-boot", false)
	w := newReanalyzeBoot(o).(*reanalyzeBoot)
	w.chk.golden = "not-a-digest"
	defer w.close()
	res, err := runUntraced(o, w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Fatalf("correct %v attempted %d failed %d; want every pass failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestReplayLeavesBatchesUnchanged replays the recorded streams through
// the collector twice, then through the in-process merge: all three
// must drain to the same trace, so no pass changed the shared inputs.
func TestReplayLeavesBatchesUnchanged(t *testing.T) {
	o := smokeOptions(t, "ingest-replay", false)
	o.seed = defaultSeed // also compares against in-process RunStream
	w := newIngestReplay(o).(*ingestReplay)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		verify, err := w.pass(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(); err != nil {
			t.Fatalf("pass %d: %v", i+1, err)
		}
	}
	if err := w.layers(newTracer()); err != nil {
		t.Fatal(err)
	}
}
