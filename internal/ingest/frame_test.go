package ingest

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// roundTrip writes f and reads it back through the caller's reused
// encode and payload buffers.
func roundTrip(t *testing.T, f *frame, wbuf *bytes.Buffer, rbuf *[]byte) *frame {
	t.Helper()
	var wire bytes.Buffer
	if err := writeFrame(&wire, wbuf, f, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readFrame(&wire, rbuf, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

// sampleFrames is one frame of every kind, fields populated.
func sampleFrames() []*frame {
	rec := &stream.SessionRecord{
		Conn: trace.Conn{
			Start: time.Second, End: time.Minute,
			Addr: netip.MustParseAddr("10.1.2.3"), Ultrapeer: true, UserAgent: "LimeWire/4.0",
		},
		Queries: []trace.Query{{At: 2 * time.Second, Text: "free mp3", TTL: 7, Hops: 1, Hits: 3}},
	}
	return []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 2, Source: "vantage2", JournalTMs: 123.5}},
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 0, JournalTMs: -1}},
		{Kind: frameWelcome, Welcome: &welcomeFrame{Resume: 77, JournalResume: 12, Evicted: true}},
		{Kind: frameJournal, Journal: &journalFrame{FirstSeq: 13, Lines: [][]byte{
			[]byte(`{"kind":"event","t_ms":1,"name":"x"}`),
			[]byte(`{"kind":"heartbeat","t_ms":2}`),
		}}},
		{Kind: frameJournalAck, JAck: &ackFrame{Seq: 14}},
		{Kind: frameData, Data: &dataFrame{FirstSeq: 9, Events: []stream.Event{
			{Kind: stream.EvOpen, ID: 4, Time: time.Second},
			{Kind: stream.EvClose, ID: 4, Time: time.Minute, Sess: rec},
			{Kind: stream.EvPong, Time: 3 * time.Second, Pong: trace.Pong{At: 3 * time.Second, SharedFiles: 120}},
			{Kind: stream.EvDone, Time: time.Hour, Done: &stream.End{Seed: 1, Scale: 0.5, Days: 2, Nodes: 1}},
		}}},
		{Kind: frameAck, Ack: &ackFrame{Seq: 1 << 40}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := sampleFrames()
	// Every frame goes through the same encode and payload buffers, and
	// the comparison waits until all are decoded: a decoded frame that
	// aliased the reused payload buffer would be overwritten by the next.
	var wbuf bytes.Buffer
	var rbuf []byte
	roundTrip(t, frames[len(frames)-2], &wbuf, &rbuf) // size rbuf for the largest frame up front
	got := make([]*frame, len(frames))
	for i, f := range frames {
		got[i] = roundTrip(t, f, &wbuf, &rbuf)
	}
	for i, f := range frames {
		if !reflect.DeepEqual(f, got[i]) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", f.Kind, got[i], f)
		}
	}
}

// TestFrameSingleWrite pins the one-frame-per-Write property that makes
// whole-write fault injection (dup, reorder) safe: swapping or doubling
// Write calls can never tear a frame.
func TestFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := writeFrame(&w, nil, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("frame used %d Write calls, want exactly 1", w.calls)
	}
}

type countingWriter struct {
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

func TestFrameRejectsBadLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameLen+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil, nil); err == nil {
		t.Fatal("oversized length accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil, nil); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestFrameTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(torn), nil, nil); err == nil {
		t.Fatal("torn frame accepted")
	}
}

// FuzzReadFrame feeds arbitrary bytes to readFrame through one payload
// buffer reused across frames and inputs, as a collector connection
// reuses it: every input must end in an error (at the latest io.EOF),
// never a panic. The seeds are valid frames of every kind, alone and
// back to back. Gob's reflection makes most mutations new coverage, so
// cap the per-input minimization when fuzzing, or it eats the run:
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzzminimizetime 100x ./internal/ingest/
func FuzzReadFrame(f *testing.F) {
	var wbuf bytes.Buffer
	var all bytes.Buffer
	for _, fr := range sampleFrames() {
		var wire bytes.Buffer
		if err := writeFrame(&wire, &wbuf, fr, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
		all.Write(wire.Bytes())
	}
	f.Add(all.Bytes())
	var rbuf []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := readFrame(r, &rbuf, nil)
			if err != nil {
				return
			}
			if fr == nil {
				t.Fatal("readFrame returned neither a frame nor an error")
			}
		}
	})
}

// TestFrameLargePayloadNotKept: a frame past maxKeptPayload still round
// trips, but through a one-off buffer, leaving the connection's reused
// payload buffer at its size; a bare length prefix of such a frame is a
// clean error.
func TestFrameLargePayloadNotKept(t *testing.T) {
	line := bytes.Repeat([]byte("x"), maxKeptPayload+1)
	f := &frame{Kind: frameJournal, Journal: &journalFrame{FirstSeq: 1, Lines: [][]byte{line}}}
	var wire bytes.Buffer
	if err := writeFrame(&wire, nil, f, nil); err != nil {
		t.Fatal(err)
	}
	prefix := append([]byte(nil), wire.Bytes()[:4]...)
	rbuf := make([]byte, 0, 64)
	got, err := readFrame(&wire, &rbuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatal("large frame round trip differs")
	}
	if cap(rbuf) != 64 {
		t.Fatalf("payload buffer grew to %d for an oversized frame", cap(rbuf))
	}
	if _, err := readFrame(bytes.NewReader(prefix), &rbuf, nil); err == nil {
		t.Fatal("length prefix without its payload accepted")
	}
}
