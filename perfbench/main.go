// Command perfbench is the repository's benchmark: one program that runs
// a workload of the paper-reproduction pipeline, checks every output it
// produces, and prints each metric by name with its unit and
// better-direction. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md in this directory explains them.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload fleet-stream --seed 2004 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing attached;
// --trace 1 is the separate traced run that reports the per-layer
// metrics and writes its spans under --dir. The last line of standard
// output is always one JSON object:
//
//	{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":6.1,"unit":"s"},...}}
//
// Setup errors (no result can be measured) exit with status 1 and print
// no result line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// defaultSeed is the seed the golden digests are recorded at.
const defaultSeed = 2004

// setupRuns is how many times an untraced run builds its inputs; setup_s
// is their median, so work moved into set-up shows without one slow
// build deciding the figure.
const setupRuns = 3

// workload is one benchmark workload.
type workload interface {
	// setup builds the measured passes' inputs from the seed. It may run
	// several times; each call replaces the previous inputs.
	setup() error
	// pass runs measured pass number n of the run (the traced run gives
	// both passes of a pair the same n, so they see the same input). t is
	// nil in untraced passes. The returned verify checks the pass's
	// outputs; it runs outside the timed pass.
	pass(n int, t *tracer) (verify func() error, err error)
	// layers measures, in the traced run only, the per-layer figures
	// that need calls outside the pass (single-worker decompositions,
	// in-process replays). It records them on t.
	layers(t *tracer) error
	// close releases the workload's inputs.
	close()
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// smoke shrinks every input so a run takes a second or two; the
	// golden digests do not apply to it.
	smoke bool
	// dir holds temporary inputs and the traced run's span file.
	dir string
}

var workloads = map[string]func(options) workload{
	"fleet-stream":   newFleetStream,
	"reanalyze-boot": newReanalyzeBoot,
	"ingest-replay":  newIngestReplay,
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: fleet-stream, reanalyze-boot or ingest-replay")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every input to a smoke-test size")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for temporary inputs and the span file")
	flag.Parse()
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.traced = *traceFlag == 1
	if flag.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation, printing the human-readable report to out,
// and returns the result line.
func run(o options, out io.Writer) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	w := mk(o)
	defer w.close()
	fmt.Fprintf(out, "workload %s seed %d seconds %.0f trace %v smoke %v\n",
		o.workload, o.seed, o.seconds.Seconds(), o.traced, o.smoke)
	fmt.Fprintf(out, "host: cpu %q nproc %d GOMAXPROCS %d go %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if o.traced {
		return runTraced(o, w, out)
	}
	return runUntraced(o, w, out)
}

// more reports whether another pass fits in the measuring time: at least
// one pass always runs, and a further one only if the last pass's
// duration still fits before the deadline.
func more(start time.Time, budget, last time.Duration, passes int) bool {
	return passes == 0 || time.Since(start)+last <= budget
}

func runUntraced(o options, w workload, out io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tl tally
	var walls, rss []float64
	rssOK := true
	start := time.Now()
	var last time.Duration
	for more(start, o.seconds, last, tl.attempted) {
		t0 := time.Now()
		reset := resetPeakRSS()
		t1 := time.Now()
		verify, err := w.pass(tl.attempted, nil)
		wall := time.Since(t1)
		peak := obs.PeakRSSBytes()
		if err == nil {
			err = verify()
		}
		tl.record(err)
		walls = append(walls, wall.Seconds())
		if reset != nil || peak <= 0 {
			rssOK = false
		} else {
			rss = append(rss, float64(peak)/1e6)
		}
		last = time.Since(t0)
	}
	if !rssOK {
		// VmHWM could not be reset after set-up, so the high-water mark
		// would be set-up's, not the pass's: report nothing rather than
		// a wrong figure.
		fmt.Fprintln(out, "peak_rss_mb unavailable: /proc/self/clear_refs could not reset VmHWM")
		rss = nil
	}

	samples := map[string][]float64{"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss}
	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "%-12s %12s %-5s %-6s %12s %12s %4s %7s\n", "metric", "median", "unit", "better", "q1", "q3", "n", "spread")
	for _, m := range endToEnd {
		xs := samples[m.name]
		if len(xs) == 0 {
			continue
		}
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-12s %12.6g %-5s %-6s %12.6g %12.6g %4d %6.2f%%\n",
			m.name, med, m.unit, m.better, q1, q3, len(xs), 100*(q3-q1)/med)
		res.Metrics[m.name] = metricValue{med, m.unit}
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "%s samples: %.4g\n", m.name, samples[m.name])
	}
	writeTally(out, &tl)
	return res, nil
}

func runTraced(o options, w workload, out io.Writer) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t := newTracer()
	passName := o.workload + " pass"
	var tl tally
	var plain, traced []float64
	var rts []map[string]float64
	var passLayers []map[string]float64
	start := time.Now()
	var last time.Duration
	for more(start, o.seconds, last, len(traced)) {
		t0 := time.Now()
		// The untraced twin: the baseline for the tracing overhead, and
		// the pass the runtime figures are read over. Both passes start
		// from the same memory state as an untraced run's; no RSS is
		// reported here, so a failed VmHWM reset does not matter.
		_ = resetPeakRSS()
		before := readRuntime()
		t1 := time.Now()
		verify, err := w.pass(len(traced), nil)
		wall := time.Since(t1).Seconds()
		rts = append(rts, readRuntime().since(before, wall))
		if err == nil {
			err = verify()
		}
		tl.record(err)
		plain = append(plain, wall)

		_ = resetPeakRSS()
		t.rootID = t.begin(0, passName)
		verify, err = w.pass(len(traced), t)
		traced = append(traced, t.end(t.rootID))
		if err == nil {
			t.set("trace.hash_s", t.time(0, "check", func() { err = verify() }))
		}
		tl.record(err)
		passLayers = append(passLayers, t.takeLayers())
		last = time.Since(t0)
	}
	t.rootID = t.begin(0, "layers")
	tl.record(w.layers(t))
	t.end(t.rootID)
	extra := t.takeLayers()

	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "%-32s %14s %-8s %-6s\n", "per-layer metric", "value", "unit", "better")
	for _, m := range perLayer {
		var v float64
		switch {
		case m.name == "bench.trace_overhead_s":
			v = median(traced) - median(plain)
		case strings.HasPrefix(m.name, "runtime."):
			v = medianOf(rts, m.name)
		default:
			v = medianOf(passLayers, m.name)
			if x, ok := extra[m.name]; ok {
				v = x
			}
		}
		fmt.Fprintf(out, "%-32s %14.6g %-8s %-6s\n", m.name, v, m.unit, m.better)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	fmt.Fprintf(out, "traced pass wall_s %.4f (n=%d), untraced %.4f: tracing overhead %.4f s (%.2f%%)\n",
		median(traced), len(traced), median(plain), median(traced)-median(plain),
		100*(median(traced)-median(plain))/median(plain))
	t.writeLayerTable(out, passName)
	spanFile := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.writeFile(spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", spanFile)
	writeTally(out, &tl)
	return res, nil
}

// medianOf is the median of one key over several passes' metric sets; a
// key a pass did not record counts as 0 (its layer did no work).
func medianOf(sets []map[string]float64, key string) float64 {
	xs := make([]float64, len(sets))
	for i, s := range sets {
		xs[i] = s[key]
	}
	return median(xs)
}

func writeTally(out io.Writer, tl *tally) {
	fmt.Fprintf(out, "passes attempted %d failed %d error_rate %g\n", tl.attempted, tl.failed, tl.errorRate())
	for _, e := range tl.errs {
		fmt.Fprintf(out, "failure: %s\n", e)
	}
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident high-water mark (VmHWM) to the current RSS, so the VmHWM read
// after a pass is that pass's own peak, not set-up's.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeNames are the runtime/metrics the traced run reads around a pass.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type runtimeReading struct {
	cpu     float64
	samples []metrics.Sample
}

func readRuntime() runtimeReading {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	r := runtimeReading{cpu: tv(ru.Utime) + tv(ru.Stime), samples: make([]metrics.Sample, len(runtimeNames))}
	for i, n := range runtimeNames {
		r.samples[i].Name = n
	}
	metrics.Read(r.samples)
	return r
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// since turns two readings around a pass of the given wall time into the
// runtime.* metrics.
func (r runtimeReading) since(before runtimeReading, wall float64) map[string]float64 {
	d := func(i int) float64 { return value(r.samples[i]) - value(before.samples[i]) }
	cpu := r.cpu - before.cpu
	return map[string]float64{
		"runtime.cpu_s":     cpu,
		"runtime.cpu_util":  cpu / (wall * float64(runtime.GOMAXPROCS(0))),
		"runtime.alloc_mb":  d(0) / 1e6,
		"runtime.mallocs_m": d(1) / 1e6,
		"runtime.gc_cycles": d(2),
		"runtime.gc_cpu_s":  d(3),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
