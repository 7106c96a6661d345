package main

import (
	"sort"
	"sync"
	"time"

	"hbverify/internal/metrics"
)

// span is one timed call the benchmark made into a layer. Spans of one
// workload event share Event; Parent links a call to the event's root span
// (0 for roots). Counters holds the registry counters the call moved.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Event    uint64           `json:"event"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced phase runs the same code without its cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(ev uint64, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Event: ev, Layer: layer, Name: name, StartNS: now})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// do runs fn inside a span. With reg set, the registry counters fn moved
// are attached to the span.
func (t *tracer) do(ev uint64, parent int, layer, name string, reg *metrics.Registry, fn func()) {
	if t == nil {
		fn()
		return
	}
	var before map[string]int64
	if reg != nil {
		before = reg.Snapshot()
	}
	id := t.open(ev, parent, layer, name)
	fn()
	t.close(id)
	if reg != nil {
		d := diffSnapshots(before, reg.Snapshot())
		t.mu.Lock()
		t.spans[id-1].Counters = d
		t.mu.Unlock()
	}
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// diffSnapshots returns the nonzero counter movements between two registry
// snapshots (timer totals and quantiles excluded: only counts).
func diffSnapshots(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 && !isTiming(k) {
			out[k] = d
		}
	}
	return out
}

func isTiming(k string) bool {
	for _, suf := range []string{".ns", ".p50", ".p95", ".p99", ".max"} {
		if len(k) > len(suf) && k[len(k)-len(suf):] == suf {
			return true
		}
	}
	return false
}

// traceSummary is what a span log says about where time went.
type traceSummary struct {
	// self is each layer's self time: span durations minus the part of
	// their interval child spans cover, summed per layer.
	self map[string]time.Duration
	// rootTotal is the summed duration of root spans; covered the part of
	// it their children cover.
	rootTotal, covered time.Duration
}

// summarize computes per-layer self time and root coverage.
func summarize(spans []span) traceSummary {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	sum := traceSummary{self: map[string]time.Duration{}}
	for _, s := range spans {
		cov := unionLen(kids[s.ID])
		sum.self[s.Layer] += s.dur() - cov
		if s.Parent == 0 {
			sum.rootTotal += s.dur()
			sum.covered += cov
		}
	}
	return sum
}

// unionLen is the length of the union of the spans' intervals.
func unionLen(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	ss = append([]span(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNS < ss[j].StartNS })
	var total int64
	lo, hi := ss[0].StartNS, ss[0].EndNS
	for _, s := range ss[1:] {
		if s.StartNS > hi {
			total += hi - lo
			lo, hi = s.StartNS, s.EndNS
		} else if s.EndNS > hi {
			hi = s.EndNS
		}
	}
	return time.Duration(total + hi - lo)
}

// rename relabels span id once the call has shown which layer did the work.
func (t *tracer) rename(id int, layer, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Layer, t.spans[id-1].Name = layer, name
	t.mu.Unlock()
}

// add records a finished span with explicit bounds and returns its ID.
func (t *tracer) add(ev uint64, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Event: ev, Layer: layer, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))})
	return id
}
