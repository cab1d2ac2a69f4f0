package engine

// The full-chain-replay engine — the determinism mechanism this package
// used before the keyed tie-break — lives on here as the independent test
// oracle: every node replays the whole global arrival chain, one trivial
// event per foreign arrival, relying on nothing but the schedulers'
// implicit FIFO order. The keyed engine must reproduce its traces byte
// for byte at every node count (grid tests, a 256-node case, and a fuzz
// target below), while scheduling O(global arrivals) fewer events per
// node — which TestScheduledPerNodeScaling pins.

import (
	"bytes"
	"testing"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// replayPart is the chain-replay oracle's partition: every arrival
// instant, each arrival's owner, and the sessions split per node.
type replayPart struct {
	starts  []simtime.Time
	owner   []uint32
	perNode [][]*behavior.Session
}

func replayPartition(cfg capture.FleetConfig) (*replayPart, *capture.SharedModel) {
	gen := behavior.NewGenerator(cfg.Node.Workload)
	shared := capture.NewSharedModel(gen)
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	p := &replayPart{perNode: make([][]*behavior.Session, cfg.Nodes)}
	for sess := gen.Next(); sess != nil; sess = gen.Next() {
		g := guids.Next()
		n := g.Shard(cfg.Nodes)
		p.starts = append(p.starts, sess.Start)
		p.owner = append(p.owner, uint32(n))
		p.perNode[n] = append(p.perNode[n], sess)
	}
	return p, shared
}

// replayRun is the oracle's event loop: schedule the next chain event
// first, then dispatch the arrival if it is ours — the exact statement
// order of the fleet's dispatcher, which the implicit FIFO tie-break
// makes observable.
type replayRun struct {
	sched  *simtime.HeapScheduler
	node   *capture.Node
	part   *replayPart
	idx    uint32
	k      int
	cursor int
}

func (r *replayRun) Fire(now simtime.Time, _ simtime.Event) {
	k := r.k
	r.k++
	if r.k < len(r.part.starts) {
		r.sched.Schedule(r.part.starts[r.k], simtime.Event{Handler: r})
	}
	if r.part.owner[k] == r.idx {
		sess := r.part.perNode[r.idx][r.cursor]
		r.cursor++
		r.node.Arrive(now, sess)
	}
}

// replayNodeTraces runs the chain-replay oracle over every node and
// returns the per-node traces plus each node's scheduled-event count.
func replayNodeTraces(cfg capture.FleetConfig) ([]*trace.Trace, []uint64) {
	part, shared := replayPartition(cfg)
	horizon := simtime.Time(cfg.Node.Workload.Days) * simtime.Day
	traces := make([]*trace.Trace, cfg.Nodes)
	scheduled := make([]uint64, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		sched := simtime.NewScheduler()
		node := capture.NewNode(cfg.Node, i, sched, shared)
		r := &replayRun{sched: sched, node: node, part: part, idx: uint32(i)}
		if len(part.starts) > 0 {
			sched.Schedule(part.starts[0], simtime.Event{Handler: r})
		}
		sched.RunUntil(horizon)
		node.FinalizeOpen(horizon)
		traces[i] = node.Trace()
		scheduled[i] = sched.Scheduled()
	}
	return traces, scheduled
}

// TestKeyedMatchesChainReplayOracle pins the tentpole equivalence: at
// several node counts the keyed engine's per-node traces equal the
// chain-replay oracle's byte for byte. (Independence from the scheduler
// implementation is pinned by the golden hashes in golden_test.go.)
func TestKeyedMatchesChainReplayOracle(t *testing.T) {
	for _, nodes := range []int{1, 3, 4, 48} {
		cfg := testCfg(2004, 2, nodes)
		want, _ := replayNodeTraces(cfg)
		e := New(Config{Fleet: cfg, Workers: 4})
		e.Run()
		got := e.NodeTraces()
		for i := range want {
			if !bytes.Equal(traceBytes(t, want[i]), traceBytes(t, got[i])) {
				t.Fatalf("nodes=%d: node %d trace differs from chain-replay oracle", nodes, i)
			}
		}
	}
}

// TestKeyed256NodesMatchesOracle pushes the equivalence far beyond the
// grid tests' node counts: at 256 nodes (most nodes own a handful of
// sessions, so foreign-arrival ordering dominates) the keyed engine's
// merged trace must still hash equal to the oracle's merge.
func TestKeyed256NodesMatchesOracle(t *testing.T) {
	cfg := testCfg(2004, 1, 256)
	oracle, _ := replayNodeTraces(cfg)
	want, err := trace.Merge(oracle...).Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, lookahead := range []int{0, 64} {
		e := New(Config{Fleet: cfg, Lookahead: lookahead})
		got, err := e.Run().Hash()
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("lookahead=%d: 256-node keyed merge hash differs from chain-replay oracle", lookahead)
		}
	}
}

// TestScheduledPerNodeScaling pins the scaling win the keyed tie-break
// buys, exactly: the traces being byte-identical means both engines run
// the same internal (probe/query/close) events, so the only difference
// per node is the arrival bookkeeping — one event per *global* arrival
// under chain replay versus one per *own* arrival under keys. At 48
// nodes each keyed node must therefore schedule exactly
// (arrivals − ownArrivals) fewer events than the oracle's same node.
func TestScheduledPerNodeScaling(t *testing.T) {
	cfg := testCfg(2004, 2, 48)
	part, _ := replayPartition(cfg)
	arrivals := uint64(len(part.starts))
	_, oracle := replayNodeTraces(cfg)

	e := New(Config{Fleet: cfg})
	per := e.ScheduledPerNode()
	if len(per) != 48 {
		t.Fatalf("ScheduledPerNode rows = %d, want 48", len(per))
	}
	for i, n := range per {
		if n == 0 {
			t.Fatalf("node %d scheduled no events", i)
		}
		own := uint64(len(part.perNode[i]))
		if want := oracle[i] - (arrivals - own); n != want {
			t.Fatalf("node %d scheduled %d events, want %d (oracle %d − %d foreign arrivals)",
				i, n, want, oracle[i], arrivals-own)
		}
		// The absolute point of the refactor, stated directly: no node pays
		// for the full global chain anymore.
		if n >= oracle[i] {
			t.Fatalf("node %d scheduled %d events ≥ oracle's %d — chain replay cost is back", i, n, oracle[i])
		}
	}
}

// FuzzKeyedReplayEquivalence fuzzes the keyed engine against the
// chain-replay oracle the way FuzzSchedulerOracleEquivalence pins the
// scheduler against its order oracle: whatever the seed and fleet size,
// the merged traces must hash equal.
func FuzzKeyedReplayEquivalence(f *testing.F) {
	f.Add(uint64(2004), uint8(4), false)
	f.Add(uint64(1), uint8(1), true)
	f.Add(uint64(7), uint8(17), false)
	f.Add(uint64(42), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8, bounded bool) {
		n := int(nodes%64) + 1
		cfg := capture.DefaultConfig(seed, 0.005)
		cfg.Workload.Days = 1
		fleet := capture.FleetConfig{Node: cfg, Nodes: n}
		oracle, _ := replayNodeTraces(fleet)
		want, err := trace.Merge(oracle...).Hash()
		if err != nil {
			t.Fatal(err)
		}
		ecfg := Config{Fleet: fleet}
		if bounded {
			ecfg.Lookahead = 32
		}
		got, err := New(ecfg).Run().Hash()
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("seed=%d nodes=%d bounded=%v: keyed merge hash differs from chain-replay oracle", seed, n, bounded)
		}
	})
}
