package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: name, start, end and the span that
// caused it (-1 for a root). Times are offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. It is not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span with known start and end, returning its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans) - 1
}

// open starts a span, returning its id; close ends it. Children opened in
// between may name it as their parent.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) { t.spans[id].End = time.Since(t.origin) }

// do times fn as a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.open(name, parent)
	fn()
	t.close(id)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// count returns how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
