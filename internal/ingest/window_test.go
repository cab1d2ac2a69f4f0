package ingest

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// items returns the window's contents, oldest first, as one slice.
func items[T sequenced](w *window[T]) []T {
	a, b := w.segments()
	return append(append([]T{}, a...), b...)
}

// checkWindow compares w with the plain-slice reference and checks that
// every slot outside the live ring is zeroed and the capacity is within
// its bound: limit, or the largest window plus the batch being taken.
func checkWindow(t *testing.T, step int, w *window[pendingEv], ref []pendingEv, peak int) {
	t.Helper()
	if w.len() != len(ref) {
		t.Fatalf("step %d: len %d, reference %d", step, w.len(), len(ref))
	}
	got := items(w)
	if len(ref) == 0 {
		got = nil
		ref = nil
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("step %d: items diverge from reference:\n got %v\nwant %v", step, got, ref)
	}
	for i := range ref {
		if w.at(i).seq != ref[i].seq {
			t.Fatalf("step %d: at(%d).seq = %d, want %d", step, i, w.at(i).seq, ref[i].seq)
		}
	}
	live := make(map[int]bool, w.n)
	for i := 0; i < w.n; i++ {
		live[(w.head+i)%len(w.buf)] = true
	}
	for j := range w.buf {
		if !live[j] && w.buf[j] != (pendingEv{}) {
			t.Fatalf("step %d: dropped slot %d not zeroed: %+v", step, j, w.buf[j])
		}
	}
	if bound := max(w.limit, peak); len(w.buf) > bound {
		t.Fatalf("step %d: capacity %d exceeds max(limit %d, peak %d)", step, len(w.buf), w.limit, peak)
	}
}

// TestWindowModel drives the retransmit window through random intake,
// cumulative acks, resends and restart-resume lives, exactly as
// Emitter.Run uses it, against a plain slice that copies on every ack.
func TestWindowModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 7))
			limit := 1 + rng.IntN(300)
			w := &window[pendingEv]{limit: limit}
			var ref []pendingEv
			var nextSeq uint64 = 1
			var acked uint64 // the collector's applied watermark
			peak := 0
			for step := 0; step < 3000; step++ {
				switch op := rng.IntN(10); {
				case op < 5 && w.len() < limit:
					// Intake: one batch, seqs assigned consecutively and
					// skipped when a previous life already had them acked.
					k := 1 + rng.IntN(64)
					peak = max(peak, w.len()+k)
					w.reserve(k)
					for range k {
						seq := nextSeq
						nextSeq++
						if seq <= acked {
							continue
						}
						pe := pendingEv{seq: seq, ev: stream.Event{ID: seq, Sess: &stream.SessionRecord{}}}
						w.push(pe)
						ref = append(ref, pe)
					}
				case op < 8:
					// A cumulative ack anywhere up to the newest seq, stale
					// ones included.
					seq := uint64(rng.Int64N(int64(nextSeq)))
					acked = max(acked, seq)
					i := 0
					for i < len(ref) && ref[i].seq <= seq {
						i++
					}
					if d := w.ack(seq); d != i {
						t.Fatalf("step %d: ack(%d) dropped %d, want %d", step, seq, d, i)
					}
					ref = append(ref[:0:0], ref[i:]...)
				case op < 9:
					// Resend on reconnect: the segments from 0 are the
					// whole window, seq-contiguous.
					got := items(w)
					for i := 1; i < len(got); i++ {
						if got[i].seq != got[i-1].seq+1 {
							t.Fatalf("step %d: resend not seq-contiguous at %d: %d then %d", step, i, got[i-1].seq, got[i].seq)
						}
					}
				default:
					// Restart: a fresh process regenerates from seq 1 and
					// skips what the welcome says is applied.
					w = &window[pendingEv]{limit: limit}
					ref = nil
					nextSeq = 1
					peak = 0
				}
				checkWindow(t, step, w, ref, peak)
			}
		})
	}
}

// TestWindowReset is the teardown path of the send marks: everything is
// dropped and zeroed, the array kept.
func TestWindowReset(t *testing.T) {
	w := &window[rttMark]{limit: 64}
	for i := range 40 {
		w.push(rttMark{seq: uint64(i + 1), at: time.Unix(1, 0)})
	}
	w.ack(10)
	buf := w.buf
	w.reset()
	if w.len() != 0 || len(w.buf) != len(buf) || &w.buf[0] != &buf[0] {
		t.Fatalf("reset: len %d, buf %d (was %d)", w.len(), len(w.buf), len(buf))
	}
	for j, m := range w.buf {
		if m != (rttMark{}) {
			t.Fatalf("slot %d not zeroed after reset: %+v", j, m)
		}
	}
	w.push(rttMark{seq: 99})
	if got := items(w); len(got) != 1 || got[0].seq != 99 {
		t.Fatalf("after reset: %+v", got)
	}
}

// fillWindow returns a window holding n seq-contiguous events, as it is
// at the emitter's MaxUnacked bound, and the next seq.
func fillWindow(n int) (*window[pendingEv], uint64) {
	w := &window[pendingEv]{limit: n}
	rec := &stream.SessionRecord{}
	for i := range n {
		w.push(pendingEv{seq: uint64(i + 1), ev: stream.Event{Kind: stream.EvClose, Sess: rec}})
	}
	return w, uint64(n + 1)
}

// ackAndIntake is one steady-state turn of the emitter at a full window:
// a cumulative ack covering one data frame, then an intake batch of the
// same size refilling the window, with its send mark.
func ackAndIntake(w *window[pendingEv], marks *window[rttMark], next *uint64, ev stream.Event) {
	acked := w.at(maxFrameEvents - 1).seq
	w.ack(acked)
	marks.ack(acked)
	w.reserve(maxFrameEvents)
	for range maxFrameEvents {
		w.push(pendingEv{seq: *next, ev: ev})
		*next++
	}
	marks.push(rttMark{seq: *next - 1})
}

// TestWindowSteadyStateAllocs pins the emitter's steady state at the
// default 65 536-event window: acking a frame and taking the next batch
// allocate nothing, and the window does not grow.
func TestWindowSteadyStateAllocs(t *testing.T) {
	const n = 1 << 16
	w, next := fillWindow(n)
	marks := &window[rttMark]{limit: n}
	ev := stream.Event{Kind: stream.EvClose, Sess: &stream.SessionRecord{}}
	ackAndIntake(w, marks, &next, ev)
	size := len(w.buf)
	if allocs := testing.AllocsPerRun(200, func() { ackAndIntake(w, marks, &next, ev) }); allocs != 0 {
		t.Fatalf("ack + intake at a full window: %v allocs, want 0", allocs)
	}
	if len(w.buf) != size || size != n {
		t.Fatalf("window capacity %d after steady state (was %d), want %d", len(w.buf), size, n)
	}
}

// BenchmarkEmitterAck is one ack-plus-intake turn at a full window: its
// cost must not depend on the window size.
func BenchmarkEmitterAck(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("window=%dk", n>>10), func(b *testing.B) {
			w, next := fillWindow(n)
			marks := &window[rttMark]{limit: n}
			ev := stream.Event{Kind: stream.EvClose, Sess: &stream.SessionRecord{}}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ackAndIntake(w, marks, &next, ev)
			}
		})
	}
}

// benchDataFrame is a full data frame of closed sessions, each with a
// couple of queries: the shape of the ingest data path.
func benchDataFrame() *frame {
	evs := make([]stream.Event, maxFrameEvents)
	for i := range evs {
		start := time.Duration(i) * time.Second
		evs[i] = stream.Event{Kind: stream.EvClose, ID: uint64(i + 1), Time: start + time.Minute, Sess: &stream.SessionRecord{
			Conn: trace.Conn{Start: start, End: start + time.Minute, UserAgent: "LimeWire/4.0"},
			Queries: []trace.Query{
				{At: start + time.Second, Text: fmt.Sprintf("song %d", i), TTL: 7, Hops: 1},
				{At: start + 2*time.Second, Text: "free mp3", TTL: 7, Hops: 2, Hits: 3},
			},
		}}
	}
	return &frame{Kind: frameData, Data: &dataFrame{FirstSeq: 1, Events: evs}}
}

// BenchmarkFrameRoundTrip encodes and decodes one 256-event data frame
// with reused buffers, as the emitter's send and the collector's read
// do: the ingest wire codec alone.
func BenchmarkFrameRoundTrip(b *testing.B) {
	f := benchDataFrame()
	var wire, wbuf bytes.Buffer
	var rbuf []byte
	if err := writeFrame(&wire, &wbuf, f, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(wire.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		wire.Reset()
		if err := writeFrame(&wire, &wbuf, f, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&wire, &rbuf, nil); err != nil {
			b.Fatal(err)
		}
	}
}
