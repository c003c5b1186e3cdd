package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer: its name (layer.call), the interval
// in nanoseconds since the recorder started, the span that caused it, and
// the request id shared by every span of one HTTP request (0 outside
// requests).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so traced and untraced runs
// execute the same code.
type Recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// Begin opens a span; pass it to End when the call returns.
func (r *Recorder) Begin(name string, parent, req int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))}
}

// End closes s and keeps it.
func (r *Recorder) End(s Span) {
	if r == nil {
		return
	}
	s.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns the closed spans in end order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its child spans. Children may overlap each other (the
// spotlight instances run concurrently) and may outlive the parent, so the
// covered part is the union of the children's intervals clipped to the
// parent's.
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// Named sums the wall and self time of every span with the given name.
type Named struct {
	Count      int
	Wall, Self int64
	Max, Min   int64
}

// ByName aggregates spans by name.
func ByName(spans []Span) map[string]Named {
	self := SelfTimes(spans)
	out := make(map[string]Named)
	for _, s := range spans {
		n := out[s.Name]
		if n.Count == 0 || s.Dur() < n.Min {
			n.Min = s.Dur()
		}
		n.Count++
		n.Wall += s.Dur()
		n.Self += self[s.ID]
		n.Max = max(n.Max, s.Dur())
		out[s.Name] = n
	}
	return out
}
