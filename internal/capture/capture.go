// Package capture simulates the paper's measurement deployment: a passive
// ultrapeer (the modified mutella client) holding up to 200 simultaneous
// overlay connections for 40 days, recording every message it receives.
//
// The simulation reproduces the measurement *methodology*, not just the
// data: sessions end either with an observed TCP close or by falling
// silent, in which case the node applies the paper's liveness rule — after
// 15 seconds of idleness it sends a single PING, and if nothing arrives
// for another 15 seconds it closes the connection, overestimating the
// session end by up to ~30 seconds exactly as the paper reports.
//
// The node is passive: it records every message its peers send, with one
// typed call per message kind, and forwards nothing, so it keeps no
// routing state and builds no message objects.
//
// Traffic has three sources:
//
//   - the synthetic peer population (internal/behavior): handshakes,
//     hop-1 queries with client automation, keepalive pings, pong
//     responses to probes;
//   - the wider network: forwarded queries (hops 2–7) on ultrapeer
//     connections, remote pongs and query hits, at per-connection rates
//     calibrated so full-scale totals land near Table 1;
//   - the node itself: probe pings and pong replies (sent, therefore not
//     part of the received-message counts).
//
// Beyond the paper's single vantage, the package grows the deployment the
// way the distributed-measurement literature does (Allali et al.'s
// distributed honeypots): a Fleet of N cooperating ultrapeer vantage
// points sharding the arrival stream, whose per-node traces merge into
// one full-volume trace (see fleet.go and trace.Merge).
package capture

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/behavior"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/vocab"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config parameterizes a measurement run.
type Config struct {
	// Workload configures the peer population (seed, scale, days).
	Workload workload.Config
	// MaxConns caps simultaneous connections (the paper's node held 200).
	// In a Fleet the cap applies to each vantage node independently.
	MaxConns int
	// ProbeIdle is the idle time before the node sends its single probe
	// PING (15 s in the paper).
	ProbeIdle time.Duration
	// ProbeTimeout is how long the node waits for a probe response before
	// closing (another 15 s).
	ProbeTimeout time.Duration
	// ProbeRearmIdle is the idle window applied after a probe was already
	// answered, so alive-but-quiet peers are not probed every 15 seconds.
	// It bounds how late a truly silent death is detected (probe cadence
	// + 15 s timeout), so it trades pong volume against the accuracy of
	// recorded durations for silently closed sessions.
	ProbeRearmIdle time.Duration
	// KeepaliveMean is the mean gap between a client's own keepalive
	// PINGs.
	KeepaliveMean time.Duration
	// SilentCloseFraction is the share of user sessions that end without
	// an observed TCP close. The paper notes most clients skip the BYE
	// message, but a BYE-less exit still produces a TCP FIN the node
	// observes immediately; only crashes, NAT timeouts and network drops
	// are truly silent and pay the ~30 s probe overestimate.
	SilentCloseFraction float64
	// RemoteQueryEvery is the mean gap between forwarded wider-network
	// queries per ultrapeer connection.
	RemoteQueryEvery time.Duration
	// RemotePongEvery is the mean gap between forwarded pongs per
	// connection.
	RemotePongEvery time.Duration
	// RemoteHitEvery is the mean gap between observed query hits per
	// connection.
	RemoteHitEvery time.Duration
	// PongSampleRate and HitSampleRate subsample remote pong/hit records
	// in the trace (all are counted; only a sample is stored).
	PongSampleRate float64
	HitSampleRate  float64
}

// DefaultConfig returns the paper-calibrated configuration at the given
// seed and scale.
//
// Calibration note: the real node capped concurrency at 200, which bounds
// its connection-seconds; with the paper's own session-duration
// distributions the simulated population accumulates roughly an order of
// magnitude more connection-time than that cap admits (the paper's
// Table 1 volume and Figure 5 tails are not mutually consistent). The
// rates below are therefore calibrated so the *composition* of Table 1 —
// QUERY : PING : PONG : QUERYHIT ≈ 26 : 20 : 13 : 1, with hop-1 queries
// ≈5% of QUERY — holds for a 40-day run at scales where the 200-slot cap
// is not binding (the heavy-tailed session durations take a few days to
// reach steady-state concurrency, so shorter runs see lower background
// ratios). A Fleet with enough nodes that no per-node cap binds records
// the entire arrival stream (see fleet.go).
func DefaultConfig(seed uint64, scale float64) Config {
	return Config{
		Workload:            workload.DefaultConfig(seed, scale),
		MaxConns:            200,
		ProbeIdle:           15 * time.Second,
		ProbeTimeout:        15 * time.Second,
		ProbeRearmIdle:      140 * time.Second,
		KeepaliveMean:       168 * time.Second,
		SilentCloseFraction: 0.05,
		RemoteQueryEvery:    52 * time.Second,
		RemotePongEvery:     2000 * time.Second,
		RemoteHitEvery:      7000 * time.Second,
		PongSampleRate:      0.1,
		HitSampleRate:       0.1,
	}
}

// quickSilentFraction is the share of quick system disconnects that end
// silently; system-initiated disconnects are normally proper TCP closes.
const quickSilentFraction = 0.05

// byeFraction is the share of actively closed sessions that announce
// departure with a BYE message (most 2004 clients did not).
const byeFraction = 0.05

type simConn struct {
	id       int
	sess     *behavior.Session
	end      simtime.Time // client's true end (trace time)
	lastRecv simtime.Time
	probeH   simtime.Handle
	closed   bool
	// pongSeen marks a connection whose hop-1 self-pong was recorded.
	pongSeen bool
	// rec and queries accumulate the connection's record in streaming-sink
	// mode, where completed sessions are emitted and released instead of
	// retained in the vantage's trace (see vantage.sink).
	rec     trace.Conn
	queries []trace.Query
}

// Sim is one single-vantage measurement run — the paper's literal
// deployment. Create with New, execute with Run. It is a Fleet of one
// node; use NewFleet directly for the multi-vantage fabric.
type Sim struct {
	f *Fleet
	// Rejected counts arrivals refused because all MaxConns slots were
	// busy; populated by Run.
	Rejected uint64
	// DroppedQueryEvents counts client query events that found their
	// connection already closed (diagnostic); populated by Run.
	DroppedQueryEvents uint64
}

// New builds a single-vantage simulation.
func New(cfg Config) *Sim {
	return &Sim{f: NewFleet(FleetConfig{Node: cfg, Nodes: 1})}
}

// Run executes the full measurement period and returns the trace. The
// measurement stops at the configured horizon: sessions still connected
// are right-censored there, exactly as a real trace collection ends with
// connections still open.
func (s *Sim) Run() *trace.Trace {
	tr := s.f.Run()
	st := s.f.Stats()
	s.Rejected = st.Rejected
	s.DroppedQueryEvents = st.DroppedQueryEvents
	return tr
}

// vantage is one measurement node of a Fleet: its connection slots,
// random streams and output trace, driven by the fleet's shared clock and
// arrival stream. It records every message its peers send it, as the
// paper's passive ultrapeer did; it forwards nothing, so no routing
// state is kept. The zero-indexed node's random streams coincide
// with the historical single-node simulator, so a one-node fleet
// reproduces the original Sim trace.
//
// The vantage is also the handler of every event it schedules: each event
// is a kind from the list below plus its connection and one integer
// argument, stored by value in the scheduler, so the event loop allocates
// no per-event closures.
type vantage struct {
	cfg     Config
	nodeIdx int
	sched   *simtime.HeapScheduler
	rng     *rand.Rand
	params  *model.Params
	geoReg  *geo.Registry
	vocab   *vocab.Vocabulary
	out     *trace.Trace
	conns   map[int]*simConn
	nextID  int
	// peak tracks the maximum simultaneous connection count, the
	// cap-sizing diagnostic of FleetStats.
	peak int
	// rejected counts arrivals refused because all MaxConns slots were
	// busy.
	rejected uint64
	// droppedQueryEvents counts client query events that found their
	// connection already closed (diagnostic).
	droppedQueryEvents uint64
	// sink, when non-nil, switches the vantage into streaming mode: every
	// record is emitted into the event stream the moment it is final —
	// session records at close, pong/hit records at receipt — and nothing
	// accumulates in out except the aggregate counters (shipped in the
	// stream trailer). The simulation itself is identical bit for bit:
	// sink mode changes where records go, never what the vantage does, so
	// the drained merged stream equals the batch merged trace (pinned by
	// internal/engine's equivalence tests).
	sink *stream.Producer
	// dayKeyCount tracks how often each keyword set was queried today at
	// this vantage, the popularity proxy of the hit-response model (each
	// monitor estimates popularity from its own shard, as a real
	// distributed deployment would).
	dayKeyCount map[string]int
	dayOfCount  int
}

// Event kinds the vantage schedules. Every event's Ref is its *simConn;
// Arg is noted where a kind uses it.
const (
	evSelfPong      uint8 = iota // the client's pong after the handshake
	evClientQuery                // Arg: index into the session's Queries
	evSessionEnd                 // the client's observed close
	evKeepalive                  // the client's own keepalive PING
	evRemotePong                 // wider-network traffic through the peer
	evRemoteHit                  // (likewise)
	evRemoteQuery                // (likewise)
	evHitResponse                // Arg: index of the answered query record
	evProbe                      // the idle-liveness probe
	evProbeReply                 // the live client's answer to the probe
	evProbeDeadline              // Arg: the probe instant
)

// newVantage builds node idx of a fleet-style deployment around the given
// scheduler — the fleet's shared event loop, or a node-private one when
// internal/engine runs each vantage on its own goroutine. Per-node random
// streams are salted by the node index; index 0 reproduces the historical
// single-node streams exactly.
func newVantage(cfg Config, idx int, sched *simtime.HeapScheduler, sh *SharedModel) *vantage {
	salt := uint64(idx) * 0x9e3779b97f4a7c15
	return &vantage{
		cfg:         cfg,
		nodeIdx:     idx,
		sched:       sched,
		rng:         rand.New(rand.NewPCG(cfg.Workload.Seed, 0xca9107e^salt)),
		params:      sh.params,
		geoReg:      sh.geoReg,
		vocab:       sh.vocab,
		conns:       make(map[int]*simConn),
		dayKeyCount: make(map[string]int),
		out: &trace.Trace{
			Seed:           cfg.Workload.Seed,
			Scale:          cfg.Workload.Scale,
			Days:           cfg.Workload.Days,
			Nodes:          1,
			PongSampleRate: cfg.PongSampleRate,
			HitSampleRate:  cfg.HitSampleRate,
		},
	}
}

// event builds one of the vantage's own events.
func (s *vantage) event(kind uint8, c *simConn, arg int64) simtime.Event {
	return simtime.Event{Handler: s, Kind: kind, Ref: c, Arg: arg}
}

// arrive handles one session arrival assigned to this vantage.
func (s *vantage) arrive(now simtime.Time, sess *behavior.Session) {
	if len(s.conns) >= s.cfg.MaxConns {
		s.rejected++
		return
	}
	id := s.nextID
	s.nextID++
	c := &simConn{
		id:       id,
		sess:     sess,
		end:      sess.End(),
		lastRecv: now,
	}
	silentFraction := s.cfg.SilentCloseFraction
	if sess.Quick {
		silentFraction = quickSilentFraction
	}
	silent := s.rng.Float64() < silentFraction
	s.conns[id] = c
	rec := trace.Conn{
		ID:        uint64(id),
		Start:     now,
		Addr:      sess.Addr(),
		Ultrapeer: sess.Ultrapeer,
		UserAgent: sess.UserAgent,
	}
	if s.sink != nil {
		c.rec = rec
		s.sink.Open(uint64(id), now)
	} else {
		s.out.Conns = append(s.out.Conns, rec)
	}
	s.peak = max(s.peak, len(s.conns))

	// The client announces itself with a pong shortly after the
	// handshake.
	s.sched.After(300*time.Millisecond, s.event(evSelfPong, c, 0))

	// Schedule the client's query stream.
	for i := range sess.Queries {
		s.sched.Schedule(sess.Start+sess.Queries[i].Offset, s.event(evClientQuery, c, int64(i)))
	}

	// Keepalive pings.
	s.scheduleKeepalive(c)

	// Wider-network traffic through this connection.
	s.scheduleRemote(c, evRemotePong)
	s.scheduleRemote(c, evRemoteHit)
	if sess.Ultrapeer {
		s.scheduleRemote(c, evRemoteQuery)
	}

	// Session end: an observed close, or silence for the probe machinery
	// to detect.
	if !silent {
		s.sched.Schedule(c.end, s.event(evSessionEnd, c, 0))
	}
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// Fire dispatches one of the vantage's events (simtime.Handler).
func (s *vantage) Fire(now simtime.Time, ev simtime.Event) {
	c := ev.Ref.(*simConn)
	switch ev.Kind {
	case evSelfPong:
		if c.closed {
			return
		}
		s.selfPong(c, now)
		s.rearmProbe(c, s.cfg.ProbeIdle)
	case evClientQuery:
		if c.closed {
			s.droppedQueryEvents++
			return
		}
		s.clientQuery(c, now, &c.sess.Queries[ev.Arg])
		s.rearmProbe(c, s.cfg.ProbeIdle)
	case evSessionEnd:
		if c.closed {
			return
		}
		if s.rng.Float64() < byeFraction {
			c.lastRecv = now
			s.out.Counts.Bye++
		}
		s.finalize(c, now, false)
	case evKeepalive:
		if c.closed {
			return
		}
		c.lastRecv = now
		s.out.Counts.Ping++
		// A keepalive is liveness evidence, so the probe is rearmed with
		// the long window: probing 15 s after every keepalive would
		// double the pong volume for no information.
		s.rearmProbe(c, s.cfg.ProbeRearmIdle)
		s.scheduleKeepalive(c)
	case evRemotePong, evRemoteHit, evRemoteQuery:
		if c.closed || now >= c.end {
			return
		}
		switch ev.Kind {
		case evRemotePong:
			s.remotePong(c, now)
		case evRemoteHit:
			s.remoteHit(c, now)
		default:
			s.remoteQuery(c, now)
		}
		s.rearmProbe(c, s.cfg.ProbeRearmIdle)
		s.scheduleRemote(c, ev.Kind)
	case evHitResponse:
		if c.closed || now >= c.end {
			return
		}
		s.hitResponse(c, now, int(ev.Arg))
		s.rearmProbe(c, s.cfg.ProbeRearmIdle)
	case evProbe:
		s.probeFire(c, now)
	case evProbeReply:
		if c.closed || now >= c.end {
			return // died between probe and response
		}
		s.selfPong(c, now)
		s.rearmProbe(c, s.cfg.ProbeRearmIdle)
	case evProbeDeadline:
		if c.closed || c.lastRecv >= simtime.Time(ev.Arg) {
			return // closed already, or something arrived since the probe
		}
		s.finalize(c, now, true)
	}
}

// The receive methods below record one message from a peer exactly as
// the modified mutella logged its traffic: every message bumps its type's
// counter and refreshes the connection's idle clock; hop-1 queries, first
// self-pongs and a sample of remote pongs and hits are kept as records.

// selfPong receives the client's own hop-1 pong. Only the first per
// connection is recorded; repeats carry no new information (same peer,
// same library).
func (s *vantage) selfPong(c *simConn, at simtime.Time) {
	c.lastRecv = at
	s.out.Counts.Pong++
	if !c.pongSeen {
		c.pongSeen = true
		s.recordPong(trace.Pong{At: at, Addr: c.sess.Addr(), SharedFiles: uint32(c.sess.SharedFiles), Hops: 1})
	}
}

// clientQuery receives one of the client's own (hop-1) queries.
func (s *vantage) clientQuery(c *simConn, at simtime.Time, q *behavior.TimedQuery) {
	c.lastRecv = at
	s.out.Counts.Query++
	s.out.Counts.QueryHop1++
	rec := trace.Query{
		ConnID: uint64(c.id),
		At:     at,
		Text:   q.Text,
		SHA1:   q.SHA1,
		TTL:    6,
		Hops:   1,
	}
	if s.sink != nil {
		c.queries = append(c.queries, rec)
		s.scheduleResponses(c, len(c.queries)-1, q, at)
	} else {
		s.out.Queries = append(s.out.Queries, rec)
		s.scheduleResponses(c, len(s.out.Queries)-1, q, at)
	}
}

// scheduleKeepalive chains the client's own periodic PINGs.
func (s *vantage) scheduleKeepalive(c *simConn) {
	gap := time.Duration(s.rng.ExpFloat64() * float64(s.cfg.KeepaliveMean))
	at := s.sched.Now() + gap
	if at >= c.end {
		return
	}
	s.sched.Schedule(at, s.event(evKeepalive, c, 0))
}

// scheduleRemote chains wider-network traffic of one kind on a
// connection. Inbound forwarded traffic arrives through the peer, so it
// stops at the peer's true end — this is precisely why a silently dead
// connection goes idle and the probe machinery can detect it.
func (s *vantage) scheduleRemote(c *simConn, kind uint8) {
	every := s.cfg.RemotePongEvery
	switch kind {
	case evRemoteHit:
		every = s.cfg.RemoteHitEvery
	case evRemoteQuery:
		every = s.cfg.RemoteQueryEvery
	}
	gap := time.Duration(s.rng.ExpFloat64() * float64(every))
	s.sched.After(gap, s.event(kind, c, 0))
}

// remoteRegionAddr samples an address for a wider-network peer following
// the hour's geographic mix (this is what makes the "all peers" series of
// Figure 1 track the region curves).
func (s *vantage) remoteRegionAddr(at simtime.Time) (geo.Region, netip.Addr) {
	region := s.params.PickRegion(s.rng, simtime.HourOfDay(at))
	return region, s.geoReg.Sample(region, s.rng)
}

// remoteHops draws a plausible overlay distance for forwarded traffic:
// flooding fan-out makes higher hop counts more common.
func (s *vantage) remoteHops() uint8 {
	u := s.rng.Float64()
	switch {
	case u < 0.05:
		return 2
	case u < 0.15:
		return 3
	case u < 0.35:
		return 4
	case u < 0.65:
		return 5
	case u < 0.90:
		return 6
	default:
		return 7
	}
}

// remotePong receives a forwarded pong; a sample is recorded.
func (s *vantage) remotePong(c *simConn, at simtime.Time) {
	_, addr := s.remoteRegionAddr(at)
	hops := s.remoteHops()
	shared := uint32(s.params.SampleSharedFiles(s.rng))
	c.lastRecv = at
	s.out.Counts.Pong++
	if s.rng.Float64() < s.cfg.PongSampleRate {
		s.recordPong(trace.Pong{At: at, Addr: addr, SharedFiles: shared, Hops: hops})
	}
}

// remoteHit receives a query hit routed back through the peer.
func (s *vantage) remoteHit(c *simConn, at simtime.Time) {
	_, addr := s.remoteRegionAddr(at)
	hops := s.remoteHops()
	c.lastRecv = at
	s.recordHit(trace.Hit{At: at, Addr: addr, Hops: hops})
}

// remoteQuery receives a forwarded query. Only hop-1 queries are
// recorded, so a forwarded one is just counted; its hop count and text
// are still drawn, which keeps the random stream as the wire-level
// simulation consumed it.
func (s *vantage) remoteQuery(c *simConn, at simtime.Time) {
	region, _ := s.remoteRegionAddr(at)
	day := min(simtime.DayIndex(at), s.cfg.Workload.Days-1)
	s.remoteHops()
	s.vocab.Sample(s.rng, region, day)
	c.lastRecv = at
	s.out.Counts.Query++
}

// scheduleResponses models the wider network answering a direct peer's
// query: QUERYHIT messages routed back through the node over the next few
// seconds. The hit count follows the query's popularity — each repetition
// of a keyword set observed on the same day raises the expected number of
// sources — so the hit-rate extension analysis can recover the
// hit-rate/popularity correlation. Responses are received messages and
// count toward Table 1's QUERYHIT row.
func (s *vantage) scheduleResponses(c *simConn, queryIdx int, q *behavior.TimedQuery, at simtime.Time) {
	if q.SHA1 {
		// Source hunts answer rarely; the sources are already known.
		if s.rng.Float64() > 0.10 {
			return
		}
	}
	key := wire.KeywordKey(q.Text)
	if key == "" {
		return
	}
	// Reset the popularity proxy at day boundaries (hot sets drift).
	if day := simtime.DayIndex(at); day != s.dayOfCount {
		s.dayOfCount = day
		s.dayKeyCount = make(map[string]int)
	}
	s.dayKeyCount[key]++
	n := float64(s.dayKeyCount[key])

	// P(no hit) shrinks and the expected source count grows with the
	// day's repetition count of the keyword set.
	pMiss := 0.60 / (1 + 0.20*math.Log2(1+n))
	if s.rng.Float64() < pMiss {
		return
	}
	mean := 0.30 + 0.22*math.Log2(1+n)
	hits := min(1+int(s.rng.ExpFloat64()*mean), 15)
	for i := 0; i < hits; i++ {
		delay := 500*time.Millisecond + time.Duration(s.rng.Float64()*float64(8*time.Second))
		s.sched.After(delay, s.event(evHitResponse, c, int64(queryIdx)))
	}
}

// hitResponse receives one answer to the connection's query queryIdx.
// The query record is still in flight (its session has not closed), so
// the hit counter is bumped in place in either storage mode.
func (s *vantage) hitResponse(c *simConn, at simtime.Time, queryIdx int) {
	_, addr := s.remoteRegionAddr(at)
	hops := s.remoteHops()
	if s.sink != nil {
		c.queries[queryIdx].Hits++
	} else {
		s.out.Queries[queryIdx].Hits++
	}
	c.lastRecv = at
	s.recordHit(trace.Hit{At: at, Addr: addr, Hops: hops})
}

// rearmProbe (re)schedules the idle probe at now+idle.
func (s *vantage) rearmProbe(c *simConn, idle time.Duration) {
	if c.closed {
		return
	}
	s.sched.Cancel(c.probeH)
	c.probeH = s.sched.After(idle, s.event(evProbe, c, 0))
}

// probeFire implements the paper's liveness rule. The probe PING itself
// is sent, not received, so it is not recorded.
func (s *vantage) probeFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	if now < c.end {
		// Client is alive: it answers with a pong after a network RTT.
		rtt := 100*time.Millisecond + time.Duration(s.rng.Float64()*float64(300*time.Millisecond))
		s.sched.After(rtt, s.event(evProbeReply, c, 0))
		// If the client dies right after the probe, the deadline below
		// still closes the connection.
	}
	s.sched.Schedule(now+s.cfg.ProbeTimeout, s.event(evProbeDeadline, c, int64(now)))
}

// finalize closes a connection and completes its trace record.
func (s *vantage) finalize(c *simConn, end simtime.Time, silent bool) {
	if c.closed {
		return
	}
	c.closed = true
	s.sched.Cancel(c.probeH)
	delete(s.conns, c.id)
	if s.sink != nil {
		// The record is final: no response event bumps a hit counter after
		// close (they check closed first). Emit and release.
		c.rec.End = end
		c.rec.SilentClose = silent
		s.sink.Close(uint64(c.id), end, &stream.SessionRecord{Conn: c.rec, Queries: c.queries})
		c.queries = nil
		return
	}
	rec := &s.out.Conns[c.id]
	rec.End = end
	rec.SilentClose = silent
}

// recordPong stores or emits one pong record depending on the vantage's
// mode.
func (s *vantage) recordPong(rec trace.Pong) {
	if s.sink != nil {
		s.sink.Pong(rec)
		return
	}
	s.out.Pongs = append(s.out.Pongs, rec)
}

// recordHit counts a received query hit and stores or emits a sample of
// them.
func (s *vantage) recordHit(rec trace.Hit) {
	s.out.Counts.QueryHit++
	if s.rng.Float64() >= s.cfg.HitSampleRate {
		return
	}
	if s.sink != nil {
		s.sink.Hit(rec)
		return
	}
	s.out.Hits = append(s.out.Hits, rec)
}
