package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans of the traced run. They are recorded only in the benchmark's own
// code — around each HTTP call into bpserve and each in-process call into
// a layer's public entry point — kept in memory, and written out once
// when the run ends. A nil *tracer records nothing, so the untraced run
// pays one nil check per call site.

// span is one timed call. Spans of one request share Req; Parent is the
// ID of the enclosing span (0 for a request's root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	tr     *tracer
}

type tracer struct {
	mu    sync.Mutex
	spans []*span
}

func (t *tracer) add(parent, req int, name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, tr: t}
	t.spans = append(t.spans, s)
	s.Start = time.Now()
	return s
}

// root opens the top-level span of request req.
func (t *tracer) root(req int, name string) *span {
	if t == nil {
		return nil
	}
	return t.add(0, req, name)
}

// child opens a span under s; on a nil span (tracing off) it returns nil.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.add(s.ID, s.Req, name)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	s.End = now
	s.tr.mu.Unlock()
}

// record adds a finished child of s that ended now and lasted d.
func (s *span) record(name string, d time.Duration) {
	if s == nil {
		return
	}
	c := s.child(name)
	end := c.Start
	c.tr.mu.Lock()
	c.Start, c.End = end.Add(-d), end
	c.tr.mu.Unlock()
}

// time runs fn inside a child span of s named name.
func (s *span) time(name string, fn func()) {
	c := s.child(name)
	fn()
	c.end()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.End.IsZero() {
			out = append(out, *s)
		}
	}
	return out
}

// write stores every finished span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span name's self times in milliseconds: a span's
// duration minus the part of its interval covered by its children.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		d := s.End.Sub(s.Start) - covered(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(d)/1e6)
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
