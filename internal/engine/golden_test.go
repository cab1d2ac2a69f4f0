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
// recorded from the chain-replay-verified keyed engine; both the
// in-process RunStream and the per-vantage NodeStream (the emitter
// processes' entrypoint) must reproduce them.

// goldenCfg is the grid's smoke shape: one simulated day at scale 0.005,
// small enough that the 256-node NodeStream case (one arrival-process
// regeneration per vantage) stays fast.
func goldenCfg(seed uint64, nodes int) capture.FleetConfig {
	cfg := capture.DefaultConfig(seed, 0.005)
	cfg.Workload.Days = 1
	return capture.FleetConfig{Node: cfg, Nodes: nodes}
}

type goldenKey struct {
	seed  uint64
	nodes int
}

var goldenHashes = map[goldenKey]string{
	{2004, 1}:   "92b1f51d18edff04ba6787edbfb63e484087a187712ac23999c49025141aeea5",
	{2004, 3}:   "882ce3e8c3ba11b2d112bb6c45f4d347a355c0e8864f63066646885c9fdd0a9f",
	{2004, 48}:  "9f99df9af3312c813700967d5e1eab3709f3072742c2b406cad2405288d993a3",
	{2004, 256}: "19f1e49003b530d21e26b0ed201bdf7569759b0d2e8dddd467b51328cadf82b0",
	{7, 1}:      "714235a2c83e25960a88537355c815ed209ee8afe33246fd83ded05d3e3fe41b",
	{7, 3}:      "700bfd8e29fac7ac7512777d60870b422f8aec9d56a45e62008141d88db4285f",
	{7, 48}:     "a4e6660ccdee0477835681513dc04609d13c554d56b11f4aeac1887238f8a176",
	{7, 256}:    "8071436fb1de6f5623f7f498eb512e9f8db2b7f17edec59dbfd5ff4b8cb471d1",
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

// TestGoldenTraceHashes runs the grid seeds {2004, 7} × nodes {1, 3, 48,
// 256} through both streaming paths and compares each merged trace's
// SHA-256 with its recorded constant.
func TestGoldenTraceHashes(t *testing.T) {
	for _, seed := range []uint64{2004, 7} {
		for _, nodes := range []int{1, 3, 48, 256} {
			want := goldenHashes[goldenKey{seed, nodes}]
			t.Run(fmt.Sprintf("seed=%d/nodes=%d", seed, nodes), func(t *testing.T) {
				fleet := goldenCfg(seed, nodes)
				if got := hexHash(t, New(Config{Fleet: fleet}).RunStream(nil)); got != want {
					t.Errorf("RunStream hash = %s, want %s", got, want)
				}
				if got := hexHash(t, nodeStreamMerged(t, fleet)); got != want {
					t.Errorf("NodeStream hash = %s, want %s", got, want)
				}
			})
		}
	}
}
