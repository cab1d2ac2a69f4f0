package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory for the traced run, plus the per-layer
// metrics the current traced pass measured. A nil *tracer is an untraced
// pass: every method is a no-op, so one pass function serves both runs.
// Spans may be recorded from several goroutines (the ingest emitters).
type tracer struct {
	t0 time.Time
	// rootID is the span the current pass nests its layer calls under.
	rootID int

	mu     sync.Mutex
	spans  []span
	layers map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: map[string]float64{}}
}

// root is the span the current pass nests its layer calls under (0 on a
// nil tracer).
func (t *tracer) root() int {
	if t == nil {
		return 0
	}
	return t.rootID
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// time runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) time(parent int, name string, fn func()) float64 {
	id := t.begin(parent, name)
	fn()
	return t.end(id)
}

// set records a per-layer metric of the current traced pass.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layers[name] = v
	t.mu.Unlock()
}

// takeLayers returns the metrics recorded since the last call and starts
// a fresh set.
func (t *tracer) takeLayers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.layers
	t.layers = map[string]float64{}
	return m
}

// writeFile stores every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (children may overlap each other, as the two
// emitters of ingest-replay do, so their union is subtracted).
func selfTime(s span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]float64{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := 0.0, s.Start
	for _, in := range iv {
		lo := max(in[0], reach)
		if in[1] > lo {
			covered += in[1] - lo
			reach = in[1]
		}
	}
	return (s.End - s.Start) - covered
}

// writeLayerTable prints, per span name, the call count, total and self
// time, and the self time's share of the traced passes' wall time.
func (t *tracer) writeLayerTable(w io.Writer, passName string) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	type row struct {
		name        string
		calls       int
		total, self float64
		order       int
	}
	rows := map[string]*row{}
	passWall := 0.0
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name, order: len(rows)}
			rows[s.Name] = r
		}
		r.calls++
		r.total += s.End - s.Start
		r.self += selfTime(s, kids[s.ID])
		if s.Name == passName {
			passWall += s.End - s.Start
		}
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].order < list[j].order })
	fmt.Fprintf(w, "%-34s %6s %10s %10s %8s\n", "span", "calls", "total_s", "self_s", "self/pass")
	for _, r := range list {
		share := "-"
		if passWall > 0 {
			share = fmt.Sprintf("%7.1f%%", 100*r.self/passWall)
		}
		fmt.Fprintf(w, "%-34s %6d %10.4f %10.4f %8s\n", r.name, r.calls, r.total, r.self, share)
	}
}
