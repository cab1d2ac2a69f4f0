package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// InputState is one input's liveness state as Health reports it.
type InputState string

// Liveness states: an input is waiting until its emitter first connects,
// live while progress arrives, stalled after StallAfter of silence (the
// merge barrier is being held), dead once evicted, done after its
// trailer.
const (
	StateWaiting InputState = "waiting"
	StateLive    InputState = "live"
	StateStalled InputState = "stalled"
	StateDead    InputState = "dead"
	StateDone    InputState = "done"
)

// InputHealth is one input's row in Health.
type InputHealth struct {
	Input      int        `json:"input"`
	State      InputState `json:"state"`
	AppliedSeq uint64     `json:"applied_seq"`
	JournalSeq uint64     `json:"journal_seq"`
	Conns      int        `json:"conns"`
	SilentMS   int64      `json:"silent_ms"`
	Reordered  int        `json:"reordered"`
}

// Health is the collector's live status, served as JSON at /metrics.json.
type Health struct {
	Inputs     []InputHealth `json:"inputs"`
	Live       int           `json:"live"`
	Done       int           `json:"done"`
	DeadInputs int           `json:"dead_inputs"`
}

// CollectorConfig configures the central collector.
type CollectorConfig struct {
	// Inputs is how many merger inputs (vantages) feed this collector.
	Inputs int
	// Addr to listen on when Listener is nil (default 127.0.0.1:0).
	Addr string
	// Listener, when set, is used instead of listening on Addr — the
	// hook for fault-injected listeners.
	Listener net.Listener

	// Sink observes merged sessions in final order (may be nil).
	Sink stream.Sink
	// Window bounds the merge's emission barrier (stream.Merger.SetWindow);
	// 0 leaves it unbounded.
	Window trace.Time

	// StallAfter is how long an input may be silent before Health calls
	// it stalled (default 2 s). Informational: the merge is unaffected,
	// but the transition is recorded as an input_stalled journal event
	// (and input_recovered when frames resume).
	StallAfter time.Duration
	// EvictAfter is how long an input may be silent before it is declared
	// dead and evicted from the merge (default 30 s). Negative disables
	// eviction — the barrier then stalls forever on a dead input, which
	// is only safe when the emitters are trusted to finish.
	EvictAfter time.Duration
	// Tick is the liveness check period (default EvictAfter/4, capped to
	// [10 ms, 1 s]).
	Tick time.Duration

	// ReadTimeout bounds each frame read on a connection (default 2×
	// EvictAfter): a connection that goes silent longer is reaped, which
	// also bounds how long serve goroutines outlive their emitters.
	ReadTimeout time.Duration
	// WriteTimeout bounds welcome/ack writes (default 10 s).
	WriteTimeout time.Duration
	// MaxReorder bounds the per-input reorder buffer in events (default
	// 1<<15). A connection that overflows it is dropped, forcing an
	// in-order retransmit.
	MaxReorder int

	// Obs attaches the observability layer: per-input liveness
	// transitions (input_stalled / input_recovered / input_evicted /
	// input_done) as journal events, stall/eviction counters and
	// per-input applied-seq gauges on the registry. nil disables both.
	Obs *obs.Observer
	// Pprof mounts net/http/pprof on MetricsHandler's mux.
	Pprof bool
}

func (c *CollectorConfig) defaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 2 * time.Second
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 30 * time.Second
	}
	if c.Tick <= 0 {
		c.Tick = c.EvictAfter / 4
		if c.Tick < 10*time.Millisecond {
			c.Tick = 10 * time.Millisecond
		}
		if c.Tick > time.Second {
			c.Tick = time.Second
		}
	}
	if c.ReadTimeout <= 0 {
		if c.EvictAfter > 0 {
			c.ReadTimeout = 2 * c.EvictAfter
		} else {
			c.ReadTimeout = time.Minute
		}
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxReorder <= 0 {
		c.MaxReorder = 1 << 15
	}
}

// inputTrack is the collector's per-input state. Lock order: sendMu
// before mu; mu alone for state reads (Health); sendMu serializes every
// forward into the merger so per-input event order is preserved across
// connection changes and eviction.
type inputTrack struct {
	input  int
	sendMu sync.Mutex
	mu     sync.Mutex

	applied      uint64
	pending      map[uint64]stream.Event
	reordered    int
	lastProgress time.Time
	done         bool
	evicted      bool
	// stalled marks that an input_stalled event was emitted for the
	// current silence; cleared (with input_recovered) when frames resume.
	stalled bool
	active  net.Conn
	conns   int
	// ackedOut and jAckedOut are the highest event and journal
	// watermarks written successfully to this input's emitter, by an ack
	// or a welcome: what settle waits on, so no emitter is left
	// redialing a closed listener for its final ack.
	ackedOut  uint64
	jAckedOut uint64

	// Journal shipping: the exactly-once layer for the sidecar journal
	// sequence space, mirroring applied/pending, plus the lane name and
	// the clock offset (collector journal ms minus emitter journal ms;
	// the minimum over handshake samples, which is the sample with the
	// least network delay baked in). jShip marks that this input's
	// emitter ships a journal; jDone that its end-of-journal sentinel
	// has been applied — one of the things settle waits for.
	source    string
	jApplied  uint64
	jPending  map[uint64][]byte
	offset    float64
	offsetSet bool
	jShip     bool
	jDone     bool
}

// Collector accepts emitter connections, reassembles each input's exact
// event stream, feeds the streaming merge, and evicts inputs that die.
// Create with NewCollector, drive with Run.
type Collector struct {
	cfg    CollectorConfig
	l      net.Listener
	merger *stream.Merger
	tracks []*inputTrack

	obs           *obs.Observer
	reg           *obs.Registry
	mStalls       *obs.Counter
	mEvictions    *obs.Counter
	mJournalLines *obs.Counter
	hEncode       *obs.Histogram
	hDecode       *obs.Histogram

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// progress is signaled (capacity 1, coalescing) whenever an ack or
	// welcome is delivered or an input is evicted: settle's wake-up.
	progress chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCollector builds a collector and starts listening (but not
// accepting — Run does that).
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	cfg.defaults()
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("ingest: collector needs at least one input, got %d", cfg.Inputs)
	}
	l := cfg.Listener
	if l == nil {
		var err error
		l, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	m := stream.NewMerger(cfg.Inputs, cfg.Sink)
	if cfg.Window > 0 {
		m.SetWindow(cfg.Window)
	}
	c := &Collector{
		cfg:      cfg,
		l:        l,
		merger:   m,
		tracks:   make([]*inputTrack, cfg.Inputs),
		conns:    make(map[net.Conn]struct{}),
		progress: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	now := time.Now()
	for i := range c.tracks {
		c.tracks[i] = &inputTrack{
			input:        i,
			pending:      make(map[uint64]stream.Event),
			jPending:     make(map[uint64][]byte),
			source:       "input" + strconv.Itoa(i),
			lastProgress: now, // a vantage that never connects still gets evicted
		}
	}
	c.obs = cfg.Obs
	m.SetObserver(cfg.Obs)
	c.registerMetrics()
	return c, nil
}

// registerMetrics publishes the collector's ingest_* metric families.
// The registry is always populated — when no observer was configured a
// private one backs MetricsHandler so /metrics still works — but journal
// events only flow when CollectorConfig.Obs carried a journal.
func (c *Collector) registerMetrics() {
	c.reg = c.obs.Reg()
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.mStalls = c.reg.Counter("ingest_stalls_total", "input_stalled transitions observed by the liveness loop")
	c.mEvictions = c.reg.Counter("ingest_evictions_total", "inputs evicted from the merge after EvictAfter of silence")
	c.mJournalLines = c.reg.Counter("ingest_journal_lines_total", "shipped journal lines applied into the fleet journal")
	c.hEncode = c.reg.WallHistogram("ingest_frame_encode_seconds", "gob encode time per outbound frame", latencyBuckets())
	c.hDecode = c.reg.WallHistogram("ingest_frame_decode_seconds", "gob decode time per inbound frame", latencyBuckets())
	for _, t := range c.tracks {
		t := t
		l := obs.L("input", strconv.Itoa(t.input))
		c.reg.GaugeFunc("ingest_applied_seq", "cumulative ack watermark: events applied in order for this input", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.applied)
		}, l)
		c.reg.GaugeFunc("ingest_reordered_events", "events that arrived ahead of the contiguous run for this input", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.reordered)
		}, l)
		c.reg.GaugeFunc("ingest_input_conns", "connections this input's emitter has made so far", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.conns)
		}, l)
	}
	health := func(pick func(Health) int) func() float64 {
		return func() float64 { return float64(pick(c.Health())) }
	}
	c.reg.GaugeFunc("ingest_inputs_live", "inputs currently delivering frames", health(func(h Health) int { return h.Live }))
	c.reg.GaugeFunc("ingest_inputs_done", "inputs whose trailer has arrived", health(func(h Health) int { return h.Done }))
	c.reg.GaugeFunc("ingest_inputs_dead", "inputs evicted from the merge", health(func(h Health) int { return h.DeadInputs }))
	c.reg.GaugeFunc("ingest_inputs_stalled", "inputs silent past StallAfter but not yet evicted", health(func(h Health) int {
		n := 0
		for _, in := range h.Inputs {
			if in.State == StateStalled {
				n++
			}
		}
		return n
	}))
	c.reg.GaugeFunc("ingest_inputs_waiting", "inputs whose emitter has never connected", health(func(h Health) int {
		n := 0
		for _, in := range h.Inputs {
			if in.State == StateWaiting {
				n++
			}
		}
		return n
	}))
}

// Addr is the listen address emitters should dial.
func (c *Collector) Addr() string { return c.l.Addr().String() }

// Run serves until every input has delivered its trailer or been
// evicted, then waits (bounded by EvictAfter) until every live input has
// been sent its final acks and every shipping input's journal is fully
// delivered, before returning the drained merged trace. The accept loop
// paces transient listener errors and exits on permanent ones, exactly
// like the daemon's (transport.AcceptBackoff).
func (c *Collector) Run() (*trace.Trace, error) {
	sp := c.obs.Begin("collect", obs.A("inputs", c.cfg.Inputs))
	merged := make(chan *trace.Trace, 1)
	go func() { merged <- c.merger.Run() }()

	c.wg.Add(2)
	go c.acceptLoop()
	go c.liveness()

	tr := <-merged
	c.settle()
	c.shutdown()
	c.wg.Wait()
	sp.End(
		obs.A("dead_inputs", c.merger.DeadInputs()),
		obs.A("lost_sessions", c.merger.LostSessions()))
	return tr, nil
}

// DeadInputs reports how many inputs were evicted. Valid after Run.
func (c *Collector) DeadInputs() int { return c.merger.DeadInputs() }

// LostSessions reports how many sessions evicted inputs left open.
// Valid after Run.
func (c *Collector) LostSessions() uint64 { return c.merger.LostSessions() }

// settle waits, after the merge completes, until every input still in
// the merge has been told everything it is owed: its final event ack
// and, when it ships a journal, its end-of-journal sentinel and that
// line's ack. The last ack normally goes out microseconds after the
// trailer applies, so this rarely waits at all; it exists for the acks
// that do not arrive — a connection torn while writing one, or the
// trailing lines every shipping emitter writes after its last event ack
// (final metrics/latency snapshots). The listener stays open meanwhile,
// so an emitter cut at exactly the wrong moment reconnects and learns
// from its welcome that it is done. Bounded by EvictAfter (30 s when
// eviction is disabled) against an emitter that never comes back.
func (c *Collector) settle() {
	bound := c.cfg.EvictAfter
	if bound <= 0 {
		bound = 30 * time.Second
	}
	timeout := time.NewTimer(bound)
	defer timeout.Stop()
	for !c.settled() {
		select {
		case <-c.progress:
		case <-timeout.C:
			return
		}
	}
}

// settled reports whether every non-evicted input has its final acks.
func (c *Collector) settled() bool {
	for _, t := range c.tracks {
		t.mu.Lock()
		owed := !t.evicted && (t.ackedOut < t.applied ||
			t.jShip && (!t.jDone || t.jAckedOut < t.jApplied))
		t.mu.Unlock()
		if owed {
			return false
		}
	}
	return true
}

func (c *Collector) notify() {
	select {
	case c.progress <- struct{}{}:
	default:
	}
}

// shutdown stops accepting, then wakes every handler blocked on a read.
// A handler mid-frame is left to finish: it writes that frame's ack
// (bounded by WriteTimeout), sees stop and closes its connection, so
// the frame carrying an input's last events is always acked before the
// connection closes.
func (c *Collector) shutdown() {
	close(c.stop)
	c.l.Close()
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	c.mu.Unlock()
}

// nextRead arms conn's read deadline for the next frame and reports
// whether the collector is still running. Arming before checking stop
// is what makes shutdown's wake-up race-free: either the check sees
// stop, or shutdown's expired deadline lands after this one.
func (c *Collector) nextRead(conn net.Conn) bool {
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	select {
	case <-c.stop:
		return false
	default:
		return true
	}
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	var backoff transport.AcceptBackoff
	for {
		conn, err := c.l.Accept()
		if err != nil {
			delay, retry := backoff.Next(err)
			if !retry {
				return
			}
			select {
			case <-time.After(delay):
			case <-c.stop:
				return
			}
			continue
		}
		backoff.Reset()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve handles one emitter connection: hello, welcome-with-resume, then
// data frames acked as applied. Any protocol or I/O error just drops the
// connection — the emitter's reconnect-and-retransmit makes that safe.
func (c *Collector) serve(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()

	// Per-connection read and encode buffers, reused across frames.
	var rbuf []byte
	var wbuf bytes.Buffer
	if !c.nextRead(conn) {
		return
	}
	f, err := readFrame(conn, &rbuf, c.hDecode)
	if err != nil || f.Kind != frameHello || f.Hello == nil {
		return
	}
	h := f.Hello
	if h.Proto < protoVersionMin || h.Proto > protoVersion || h.Input < 0 || h.Input >= len(c.tracks) {
		return
	}
	t := c.tracks[h.Input]

	// The offset sample: collector journal clock minus the emitter's
	// clock as stamped into the hello. Both ends pay the network delay
	// between hello write and here, inflating the sample — so across
	// reconnects the minimum (least-delay) sample wins.
	var offSample float64
	// A version-1 hello has no JournalTMs field; gob leaves it zero, which
	// must not read as "shipping with clock 0".
	haveOff := h.Proto >= 2 && h.JournalTMs >= 0
	if haveOff {
		offSample = c.obs.Log().Now() - h.JournalTMs
	}

	t.mu.Lock()
	if t.active != nil && t.active != conn {
		// The emitter reconnected; the old connection is superseded. Its
		// handler exits on the closed conn, and seq dedupe makes any
		// frame it already read harmless.
		t.active.Close()
	}
	t.active = conn
	t.conns++
	if h.Source != "" {
		t.source = h.Source
	}
	if haveOff {
		t.jShip = true
		if !t.offsetSet || offSample < t.offset {
			t.offset = offSample
			t.offsetSet = true
		}
	}
	evicted := t.evicted
	if !evicted {
		t.lastProgress = time.Now()
	}
	welcome := &welcomeFrame{Resume: t.applied, JournalResume: t.jApplied, Evicted: evicted}
	t.mu.Unlock()

	_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	if err := writeFrame(conn, &wbuf, &frame{Kind: frameWelcome, Welcome: welcome}, c.hEncode); err != nil || evicted {
		return
	}
	c.delivered(t, welcome.Resume, welcome.JournalResume)

	for c.nextRead(conn) {
		f, err := readFrame(conn, &rbuf, c.hDecode)
		if err != nil {
			return
		}
		var ackf *frame
		switch {
		case f.Kind == frameData && f.Data != nil:
			ack, ok := c.apply(t, f.Data)
			if !ok {
				return
			}
			ackf = &frame{Kind: frameAck, Ack: &ackFrame{Seq: ack}}
		case f.Kind == frameJournal && f.Journal != nil:
			ack, ok := c.applyJournal(t, f.Journal)
			if !ok {
				return
			}
			ackf = &frame{Kind: frameJournalAck, JAck: &ackFrame{Seq: ack}}
		default:
			continue // stray duplicated hello or unknown frame: ignore
		}
		_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		if err := writeFrame(conn, &wbuf, ackf, c.hEncode); err != nil {
			return
		}
		if ackf.Ack != nil {
			c.delivered(t, ackf.Ack.Seq, 0)
		} else {
			c.delivered(t, 0, ackf.JAck.Seq)
		}
	}
}

// delivered records event and journal watermarks just written to t's
// emitter and wakes settle.
func (c *Collector) delivered(t *inputTrack, seq, jseq uint64) {
	t.mu.Lock()
	t.ackedOut = max(t.ackedOut, seq)
	t.jAckedOut = max(t.jAckedOut, jseq)
	t.mu.Unlock()
	c.notify()
}

// apply runs one data frame through the exactly-once layer: drop
// duplicates, hold reordered events, forward the contiguous run to the
// merge, and return the cumulative ack. ok is false when the connection
// should drop (input evicted, or reorder buffer overflow).
func (c *Collector) apply(t *inputTrack, df *dataFrame) (ack uint64, ok bool) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()

	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return 0, false
	}
	var fwd []stream.Event
	for i := range df.Events {
		seq := df.FirstSeq + uint64(i)
		if seq <= t.applied {
			continue // duplicate of an applied event
		}
		if seq != t.applied+1 {
			if len(t.pending) >= c.cfg.MaxReorder {
				t.mu.Unlock()
				return 0, false
			}
			t.pending[seq] = df.Events[i]
			t.reordered++
			continue
		}
		t.applied++
		fwd = append(fwd, df.Events[i])
		for {
			next, held := t.pending[t.applied+1]
			if !held {
				break
			}
			delete(t.pending, t.applied+1)
			t.applied++
			fwd = append(fwd, next)
		}
	}
	// Any valid frame is a liveness signal, progress or not: an emitter
	// retransmitting into a lossy link is alive, not dead.
	t.lastProgress = time.Now()
	recovered := t.stalled
	t.stalled = false
	doneNow := false
	for i := range fwd {
		if fwd[i].Kind == stream.EvDone && !t.done {
			t.done = true
			doneNow = true
		}
	}
	ack = t.applied
	src := t.source
	t.mu.Unlock()

	// Liveness transitions are journaled into the input's own collector
	// lane ("collector/<source>") rather than the collector's default
	// lane: each lane's sequence then depends on that one input alone,
	// which keeps the fleet journal's canonical form stable when inputs'
	// events race each other across lanes.
	if recovered {
		c.obs.EventSrc("collector/"+src, "input_recovered", obs.A("input", t.input), obs.A("applied_seq", ack))
	}
	if doneNow {
		c.obs.EventSrc("collector/"+src, "input_done", obs.A("input", t.input), obs.A("applied_seq", ack))
	}

	if len(fwd) > 0 {
		select {
		case c.merger.Intake() <- stream.Batch{Input: t.input, Events: fwd}:
		case <-c.stop:
			return 0, false
		}
	}
	return ack, true
}

// applyJournal is the journal sidecar's exactly-once layer, the exact
// shape of apply in the journal sequence space: drop duplicates, hold
// reordered lines, fold the contiguous run into the fleet journal with
// the input's lane and clock offset, and return the cumulative journal
// ack. Journal frames count as liveness exactly like data frames — an
// emitter with nothing to merge but a flowing journal is alive.
func (c *Collector) applyJournal(t *inputTrack, jf *journalFrame) (ack uint64, ok bool) {
	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return 0, false
	}
	var fwd [][]byte
	for i := range jf.Lines {
		seq := jf.FirstSeq + uint64(i)
		if seq <= t.jApplied {
			continue // duplicate of an applied line
		}
		if seq != t.jApplied+1 {
			if len(t.jPending) >= c.cfg.MaxReorder {
				t.mu.Unlock()
				return 0, false
			}
			t.jPending[seq] = jf.Lines[i]
			t.reordered++
			continue
		}
		t.jApplied++
		fwd = append(fwd, jf.Lines[i])
		for {
			next, held := t.jPending[t.jApplied+1]
			if !held {
				break
			}
			delete(t.jPending, t.jApplied+1)
			t.jApplied++
			fwd = append(fwd, next)
		}
	}
	t.lastProgress = time.Now()
	recovered := t.stalled
	t.stalled = false
	for _, line := range fwd {
		if len(line) == 0 {
			// The emitter's end-of-journal sentinel: this lane is
			// complete, nothing more ships in this process life.
			t.jDone = true
		}
	}
	ack = t.jApplied
	src := t.source
	offset := t.offset
	t.mu.Unlock()

	if recovered {
		c.obs.EventSrc("collector/"+src, "input_recovered", obs.A("input", t.input), obs.A("applied_seq", ack))
	}
	for _, line := range fwd {
		if len(line) == 0 {
			continue // sentinel, not a journal line
		}
		// A malformed line is the shipper's bug, not a connection fault:
		// skip it rather than tearing the connection into a retransmit
		// loop of the same bad line.
		if err := c.obs.Log().IngestLine(line, src, offset); err == nil {
			c.mJournalLines.Inc()
		}
	}
	return ack, true
}

// liveness evicts inputs whose silence outlives EvictAfter, injecting
// the EvEvict that releases the merge barrier and accounts the loss. It
// also records the earlier StallAfter transition — an input_stalled
// journal event always precedes that input's input_evicted.
func (c *Collector) liveness() {
	defer c.wg.Done()
	if c.cfg.EvictAfter < 0 {
		return
	}
	tick := time.NewTicker(c.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, t := range c.tracks {
			t.sendMu.Lock()
			t.mu.Lock()
			idle := time.Since(t.lastProgress)
			if !t.done && !t.evicted && !t.stalled && t.conns > 0 && idle >= c.cfg.StallAfter {
				t.stalled = true
				c.mStalls.Inc()
				c.obs.EventSrc("collector/"+t.source, "input_stalled",
					obs.A("input", t.input),
					obs.A("silent_ms", idle.Milliseconds()))
			}
			if t.done || t.evicted || idle < c.cfg.EvictAfter {
				t.mu.Unlock()
				t.sendMu.Unlock()
				continue
			}
			t.evicted = true
			applied := t.applied
			src := t.source
			if t.active != nil {
				t.active.Close()
			}
			t.mu.Unlock()
			c.mEvictions.Inc()
			c.notify()
			c.obs.EventSrc("collector/"+src, "input_evicted",
				obs.A("input", t.input),
				obs.A("applied_seq", applied),
				obs.A("silent_ms", idle.Milliseconds()))
			// The merge counts the still-open sessions as lost; Nodes 1
			// records that the vantage existed even though its trailer
			// never arrived.
			batch := stream.Batch{Input: t.input, Events: []stream.Event{{
				Kind: stream.EvEvict,
				Done: &stream.End{Nodes: 1},
			}}}
			select {
			case c.merger.Intake() <- batch:
			case <-c.stop:
				t.sendMu.Unlock()
				return
			}
			t.sendMu.Unlock()
		}
	}
}

// Health snapshots every input's liveness. Safe to call concurrently
// with Run — this is what /metrics.json serves.
func (c *Collector) Health() Health {
	h := Health{Inputs: make([]InputHealth, len(c.tracks))}
	now := time.Now()
	for i, t := range c.tracks {
		t.mu.Lock()
		ih := InputHealth{
			Input:      i,
			AppliedSeq: t.applied,
			JournalSeq: t.jApplied,
			Conns:      t.conns,
			SilentMS:   now.Sub(t.lastProgress).Milliseconds(),
			Reordered:  t.reordered,
		}
		switch {
		case t.done:
			ih.State = StateDone
			h.Done++
		case t.evicted:
			ih.State = StateDead
			h.DeadInputs++
		case t.conns == 0:
			ih.State = StateWaiting
		case now.Sub(t.lastProgress) > c.cfg.StallAfter:
			ih.State = StateStalled
		default:
			ih.State = StateLive
			h.Live++
		}
		t.mu.Unlock()
		h.Inputs[i] = ih
	}
	return h
}

// MetricsHandler serves the collector's observability surface: the
// ingest_* registry as Prometheus text at /metrics, the legacy Health
// JSON at /metrics.json, and (when CollectorConfig.Pprof is set)
// net/http/pprof under /debug/pprof/.
func (c *Collector) MetricsHandler() http.Handler {
	legacy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Health()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return obs.NewHTTPHandler(obs.HTTPConfig{
		Registry:   c.reg,
		LegacyJSON: legacy,
		Pprof:      c.cfg.Pprof,
	})
}
