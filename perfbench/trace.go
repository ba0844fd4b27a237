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

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no tracing). Spans of one op
// share Op; Parent is the id of the span that caused this one, -1 for a
// root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name and returns f's error. f receives
// the span id to parent its own spans on.
func (t *tracer) do(name string, parent, op int, f func(id int) error) error {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: time.Since(t.t0)})
	t.mu.Unlock()
	err := f(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfMS returns, per span name, each span's self time in ms: its
// duration minus the union of its children's intervals clipped to it.
func selfMS(spans []span) map[string][]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/float64(time.Millisecond))
	}
	return out
}

// covered is the length of the union of kids' intervals within parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// medianSelf is the median self time of the named spans, in ms.
func medianSelf(self map[string][]float64, name string) (float64, error) {
	xs := self[name]
	if len(xs) == 0 {
		return 0, fmt.Errorf("trace: no %s spans", name)
	}
	return median(xs), nil
}
