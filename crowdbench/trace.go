package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory until the run ends and are written once,
// so recording costs a lock and an append, never I/O.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

// span is one timed call: name, interval, the span that caused it (0 for
// a root) and the request it belongs to (0 for background work).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// active is a span that has begun and not yet ended.
type active struct {
	t               *tracer
	id, parent, req int64
	name            string
	start           time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root begins a span with no parent. On a nil tracer it only times.
func (t *tracer) root(name string, req int64) active {
	if t == nil {
		return active{name: name, req: req, start: time.Now()}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return active{t: t, id: id, req: req, name: name, start: time.Now()}
}

// child begins a span caused by a.
func (a active) child(name string) active {
	c := a.t.root(name, a.req)
	c.parent = a.id
	return c
}

// end records the span and returns its duration.
func (a active) end() time.Duration {
	now := time.Now()
	if a.t == nil {
		return now.Sub(a.start)
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: a.start.Sub(a.t.epoch), End: now.Sub(a.t.epoch),
	})
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores every span as one JSON line, with its self time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent"`
			Req     int64   `json:"req"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			SelfUS  float64 `json:"self_us"`
		}{s.ID, s.Parent, s.Req, s.Name, us(s.Start), us(s.End), us(self[s.ID])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
