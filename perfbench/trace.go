package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced pass: a layer call, an HTTP
// round trip, or the in-process pipeline that replays one request.
// Spans of one request share Req; Parent is -1 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// unattributed names the child that holds the part of a parent span its
// measured children do not cover.
const unattributed = "unattributed"

// Tracer keeps every span in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced code paths call it freely.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span measured elsewhere, with times relative to base
// rather than to the tracer's start.
func (t *Tracer) Add(name string, parent, req int, base time.Time, start, end time.Duration) int {
	off := int64(base.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: off + int64(start), End: off + int64(end)})
	return id
}

// Spans returns the recorded spans with every parent's uncovered
// remainder made explicit as an "unattributed" child, so a span's
// children always account for all of it.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return attribute(t.spans)
}

// attribute appends, for every span that has children, an unattributed
// child spanning parent duration − Σ children when that is positive.
// Children that overlap or outlast their parent are left as they are, for
// the conservation test to report.
func attribute(spans []Span) []Span {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.Dur()
		}
	}
	out := append([]Span(nil), spans...)
	parents := make([]int, 0, len(covered))
	for id := range covered {
		parents = append(parents, id)
	}
	sort.Ints(parents)
	for _, id := range parents {
		p := spans[id]
		if rest := p.Dur() - covered[id]; rest > 0 {
			out = append(out, Span{ID: len(out), Parent: id, Req: p.Req, Name: unattributed,
				Start: p.End - rest, End: p.End})
		}
	}
	return out
}

// spanStats sums and counts span durations by name.
type spanStats map[string]struct {
	n     int
	total int64
}

func statsOf(spans []Span) spanStats {
	st := make(spanStats)
	for _, s := range spans {
		e := st[s.Name]
		e.n++
		e.total += s.Dur()
		st[s.Name] = e
	}
	return st
}

// meanUS is the mean duration of the named spans in microseconds (0 when
// none were recorded). Means, unlike medians, add up: the layer means of
// a pipeline sum to the pipeline's mean.
func (st spanStats) meanUS(name string) float64 {
	e := st[name]
	if e.n == 0 {
		return 0
	}
	return float64(e.total) / float64(e.n) / 1e3
}

// totalNS is the summed duration of the named spans.
func (st spanStats) totalNS(name string) int64 { return st[name].total }

// unattributedRatio is the share of the time of every traced root that
// has children which no measured layer call covers, at any depth.
func unattributedRatio(spans []Span) float64 {
	hasChild := make(map[int]bool)
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var roots, rest int64
	for _, s := range spans {
		if s.Parent < 0 && hasChild[s.ID] {
			roots += s.Dur()
		}
		if s.Name == unattributed {
			rest += s.Dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(rest) / float64(roots)
}
