package engine

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The golden-hash grid pins the merged trace to fixed SHA-256 constants
// instead of only checking one execution path against another: a change
// that shifted every path alike (a scheduler swap, a sampling tweak)
// would pass a path-versus-path test but fails here. The constants were
// recorded from the chain-replay-verified keyed engine; every execution
// path — the in-process RunStream, the per-vantage NodeStream (the
// emitter processes' entrypoint), the eager and the bounded Run, and the
// sequential capture.Fleet — must reproduce them.

// goldenShape is one (scale, days) point of the grid; name prefixes its
// subtests.
type goldenShape struct {
	name  string
	scale float64
	days  int
}

var (
	// smokeShape is small enough that the 256-node NodeStream case (one
	// arrival-process regeneration per vantage) stays fast.
	smokeShape = goldenShape{"", 0.005, 1}
	// denseShape runs long and busy enough that every vantage event kind
	// fires: silent closes (probe deadlines), BYEs and hit responses.
	denseShape = goldenShape{"dense/", 0.02, 3}
)

func goldenCfg(shape goldenShape, seed uint64, nodes int) capture.FleetConfig {
	cfg := capture.DefaultConfig(seed, shape.scale)
	cfg.Workload.Days = shape.days
	return capture.FleetConfig{Node: cfg, Nodes: nodes}
}

type goldenKey struct {
	shape goldenShape
	seed  uint64
	nodes int
}

var goldenHashes = map[goldenKey]string{
	{smokeShape, 2004, 1}:   "92b1f51d18edff04ba6787edbfb63e484087a187712ac23999c49025141aeea5",
	{smokeShape, 2004, 3}:   "882ce3e8c3ba11b2d112bb6c45f4d347a355c0e8864f63066646885c9fdd0a9f",
	{smokeShape, 2004, 48}:  "9f99df9af3312c813700967d5e1eab3709f3072742c2b406cad2405288d993a3",
	{smokeShape, 2004, 256}: "19f1e49003b530d21e26b0ed201bdf7569759b0d2e8dddd467b51328cadf82b0",
	{smokeShape, 7, 1}:      "714235a2c83e25960a88537355c815ed209ee8afe33246fd83ded05d3e3fe41b",
	{smokeShape, 7, 3}:      "700bfd8e29fac7ac7512777d60870b422f8aec9d56a45e62008141d88db4285f",
	{smokeShape, 7, 48}:     "a4e6660ccdee0477835681513dc04609d13c554d56b11f4aeac1887238f8a176",
	{smokeShape, 7, 256}:    "8071436fb1de6f5623f7f498eb512e9f8db2b7f17edec59dbfd5ff4b8cb471d1",
	{denseShape, 2004, 1}:   "afc234df0ee7e2ad63645f44ccdb7d36a87d18f993ecb50d19effd1327e96b19",
	{denseShape, 2004, 3}:   "058f623d6e99de6d8b266b1b4f96c33570ae5d79e69edd1a14518f41d90519da",
	{denseShape, 2004, 48}:  "6cc7feda8f2ae24751dd6fd6555c7334d8e1aa638b3c4a3e4c0af18a327088c4",
	{denseShape, 7, 1}:      "fb7f72a1d2ac9b8de2078fc009afcaf7e3a1d5e4c59e5b3fe0ea90e1a5c6e20b",
	{denseShape, 7, 3}:      "4cc6142c35348dbe99072c4494ecd2cf0ee59d33ed8e4cfbcfcbbdd368521377",
	{denseShape, 7, 48}:     "7325bf2814685d41198f3e86caa5c22f8c595f42863028411d1f2018a7b9288a",
}

func hexHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	sum, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(sum[:])
}

// nodeStreamMerged runs every vantage of the fleet as an independent
// NodeStream, as separate emitter processes would, and drains them
// through one streaming merge.
func nodeStreamMerged(t *testing.T, fleet capture.FleetConfig) *trace.Trace {
	t.Helper()
	m := stream.NewMerger(fleet.Nodes, nil)
	m.SetWindow(DefaultMergeWindow)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	var wg sync.WaitGroup
	for i := 0; i < fleet.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := NodeStream(Config{Fleet: fleet}, i, stream.NewProducer(i, m.Intake())); err != nil {
				t.Errorf("vantage %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	return <-done
}

// goldenModes are the execution paths every grid point runs through.
var goldenModes = []struct {
	name string
	run  func(t *testing.T, fleet capture.FleetConfig) *trace.Trace
}{
	{"RunStream", func(_ *testing.T, fleet capture.FleetConfig) *trace.Trace {
		return New(Config{Fleet: fleet}).RunStream(nil)
	}},
	{"NodeStream", nodeStreamMerged},
	{"Run", func(_ *testing.T, fleet capture.FleetConfig) *trace.Trace {
		return New(Config{Fleet: fleet}).Run()
	}},
	{"RunBounded", func(_ *testing.T, fleet capture.FleetConfig) *trace.Trace {
		return New(Config{Fleet: fleet, Lookahead: 32}).Run()
	}},
	{"Fleet", func(_ *testing.T, fleet capture.FleetConfig) *trace.Trace {
		return capture.NewFleet(fleet).Run()
	}},
}

// TestGoldenTraceHashes runs every grid point — seeds {2004, 7} × nodes
// {1, 3, 48, 256} at the smoke shape, {1, 3, 48} at the dense shape —
// through every execution path and compares each merged trace's SHA-256
// with its recorded constant. At the dense shape it also checks that the
// rare vantage events the hash is meant to cover actually fired.
func TestGoldenTraceHashes(t *testing.T) {
	for _, shape := range []goldenShape{smokeShape, denseShape} {
		for _, seed := range []uint64{2004, 7} {
			for _, nodes := range []int{1, 3, 48, 256} {
				want, ok := goldenHashes[goldenKey{shape, seed, nodes}]
				if !ok {
					continue
				}
				t.Run(fmt.Sprintf("%sseed=%d/nodes=%d", shape.name, seed, nodes), func(t *testing.T) {
					fleet := goldenCfg(shape, seed, nodes)
					for _, m := range goldenModes {
						tr := m.run(t, fleet)
						if got := hexHash(t, tr); got != want {
							t.Errorf("%s hash = %s, want %s", m.name, got, want)
						}
						if shape == denseShape {
							checkDenseCoverage(t, tr)
						}
					}
				})
			}
		}
	}
}

// checkDenseCoverage fails unless the trace holds silent closes (the
// probe deadline fired), BYEs and answered queries (hit responses fired).
func checkDenseCoverage(t *testing.T, tr *trace.Trace) {
	t.Helper()
	silent, hits := 0, 0
	for i := range tr.Conns {
		if tr.Conns[i].SilentClose {
			silent++
		}
	}
	for i := range tr.Queries {
		if tr.Queries[i].Hits > 0 {
			hits++
		}
	}
	if silent == 0 || tr.Counts.Bye == 0 || hits == 0 {
		t.Errorf("dense shape misses event kinds: %d silent closes, %d BYEs, %d answered queries", silent, tr.Counts.Bye, hits)
	}
}
