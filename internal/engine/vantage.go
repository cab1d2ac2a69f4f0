package engine

import (
	"fmt"
	"sync"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// NodeStream runs exactly one vantage of the configured fleet in
// streaming mode, emitting its event stream — opens, session records,
// pongs, hits, trailer — into sink. This is the emitter-process
// entrypoint of the distributed ingest pipeline (cmd/vantage): the
// arrival process is deterministic in the seed, so each vantage process
// regenerates the full global arrival chain locally, keeps only the
// sessions guid.Shard assigns to idx, and produces a per-input event
// stream bit-equal to what RunStream's node idx produces in-process.
// N such processes feeding a collector therefore drain to a trace
// byte-identical to RunStream's — the acceptance the ingest tests pin.
// It also makes emitter restart cheap: a fresh process replays the same
// stream from the start and the ingest resume protocol discards the
// already-delivered prefix.
//
// The bounded producer (Config.Lookahead, same default as RunStream)
// paces regeneration, so a vantage process holds only its lookahead
// window of sessions no matter how large the fleet-wide arrival volume
// is. Foreign sessions are discarded at the shard check and cost only
// their generation.
func NodeStream(cfg Config, idx int, sink *stream.Producer) (capture.NodeStats, error) {
	if cfg.Fleet.Nodes < 1 {
		cfg.Fleet.Nodes = 1
	}
	if idx < 0 || idx >= cfg.Fleet.Nodes {
		return capture.NodeStats{}, fmt.Errorf("engine: vantage %d out of range [0,%d)", idx, cfg.Fleet.Nodes)
	}
	nodeCfg := cfg.Fleet.Node
	gen := behavior.NewGenerator(nodeCfg.Workload)
	shared := capture.NewSharedModel(gen)
	horizon := simtime.Time(nodeCfg.Workload.Days) * simtime.Day

	la := cfg.Lookahead
	if la <= 0 {
		la = DefaultLookahead
	}
	ch := newChain()
	queue := make(chan ownedSession, la)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		produceArrivalsOwn(cfg.Fleet, gen, ch, idx, queue)
	}()

	arrivals := cfg.Obs.Counter("engine_arrivals_total", "arrival events fired by this vantage")
	node := runNodeBounded(nodeCfg, idx, simtime.NewScheduler(), shared, ch, queue, horizon, sink, arrivals)
	wg.Wait()
	return node.Stats(), nil
}

// produceArrivalsOwn is produceArrivals for a single vantage: the
// generator and GUID stream are consumed in exactly the fleet's order
// (mandatory — any divergence would shift every tie-break key), the full
// chain is published for the node's conservative cursor, but only
// sessions sharded to own are queued; the rest are dropped on the floor.
func produceArrivalsOwn(cfg capture.FleetConfig, gen *behavior.Generator, ch *chain, own int, queue chan<- ownedSession) uint64 {
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	const batch = 512
	starts := make([]simtime.Time, 0, batch)
	owned := make([]ownedSession, 0, batch)
	var total uint64
	flush := func() {
		if len(starts) == 0 {
			return
		}
		ch.publish(starts)
		for _, os := range owned {
			queue <- os
		}
		starts, owned = starts[:0], owned[:0]
	}
	for sess := gen.Next(); sess != nil; sess = gen.Next() {
		g := guids.Next()
		if g.Shard(cfg.Nodes) == own {
			owned = append(owned, ownedSession{sess: sess, gidx: total})
		}
		starts = append(starts, sess.Start)
		total++
		if len(starts) == batch {
			flush()
		}
	}
	flush()
	ch.finish()
	close(queue)
	return total
}
