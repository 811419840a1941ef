package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from outside
// the program: around a public function call or at a seam the program
// exposes (handler, proxy client, transport client, ingest func).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped so a long traced run cannot exhaust memory.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a span whose ID came from newID (zero allocates one).
func (t *tracer) add(id, parent uint64, name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, each span's self time in ns: its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// durations returns the durations in ns of the spans with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

type spanKey struct{}

// withSpan carries a span ID to calls made on the request's behalf, so
// the proxy client can parent its span on the handler span.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}
