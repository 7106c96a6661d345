package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/stream"
)

const (
	ingestRouters      = 8
	ingestCompactEvery = 4096
	// wavesPerSecond sizes the timed fleet from the run length: 3400 waves
	// (71K lines) per second of run, about what a 2-vCPU host ingests. The
	// fleet depends on the seed and run length only, never on the host.
	wavesPerSecond = 3400
	// warmWaves is the size of each set-up ingest.
	warmWaves = 1000
)

// ingestStrategy keeps the retention floor near 1.3 s of virtual time, a
// constant-size window over an arbitrarily long stream.
var ingestStrategy = hbr.Rules{Window: 100 * time.Millisecond, ConfigWindow: 500 * time.Millisecond,
	CrossWindow: 100 * time.Millisecond}

// fleetFor derives the synthetic router fleet from the seed: the seed
// picks the config-change cadence (every 40 to 60 waves). Wave gap, hop
// latency and clock skew stay at the generator's defaults, since they set
// how many events the merge must buffer and so the cost of every line.
func fleetFor(seed int64, waves int) stream.Fleet {
	return stream.Fleet{
		Routers:     ingestRouters,
		Waves:       waves,
		ConfigEvery: int(40 + (seed&0x7fffffff)%21),
	}
}

// lineClock records when each router's reader handed out each line, so
// the time a line waited before its event reached the log can be read off
// when the event is appended.
type lineClock struct {
	mu    sync.Mutex
	marks []lineMark // in line order
	next  int        // first mark not yet consumed
	seen  int        // events of this router appended so far
}

// lineMark: every line up to (excluding) end was available at t.
type lineMark struct {
	end int
	t   time.Time
}

// timedReader counts newlines through a reader and stamps them.
type timedReader struct {
	r     io.Reader
	c     *lineClock
	lines int
}

func (t *timedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if k := bytes.Count(p[:n], []byte{'\n'}); k > 0 {
		t.lines += k
		now := time.Now()
		t.c.mu.Lock()
		t.c.marks = append(t.c.marks, lineMark{end: t.lines, t: now})
		t.c.mu.Unlock()
	}
	return n, err
}

// readAt returns when this router's next appended event's line was read.
func (c *lineClock) readAt() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.next < len(c.marks) && c.marks[c.next].end <= c.seen {
		c.next++
	}
	c.seen++
	if c.next == len(c.marks) {
		return time.Time{}, false
	}
	return c.marks[c.next].t, true
}

// ingestRun is one daemon's whole ingest of a fleet.
type ingestRun struct {
	// p50, p90, p99 of the time from a line being read to its event
	// being appended.
	p50, p90, p99 time.Duration
	events        uint64
	window        int
	elapsed       time.Duration
	heapMB        float64
	delta         regDelta
	spans         []span
	// expected is the fleet's event count. lines and appended are, per
	// router, the lines its reader produced and the events the log
	// appended for it; foreign counts appended events of no fleet router.
	expected        int
	lines, appended []int
	foreign         int
}

// ingest streams fleet f through a fresh daemon, one goroutine per router
// stream, and checks the result.
func ingest(f stream.Fleet, tr *tracer, wantHeap bool) (*ingestRun, error) {
	reg := metrics.NewRegistry()
	d, err := stream.New(stream.Options{Strategy: ingestStrategy, Metrics: reg,
		Resolve: f.Resolver(), CompactEvery: ingestCompactEvery})
	if err != nil {
		return nil, err
	}
	clocks := make([]*lineClock, f.Routers)
	streams := make([]*stream.Stream, f.Routers)
	index := map[string]int{}
	for i := range streams {
		clocks[i] = &lineClock{}
		index[f.RouterName(i)] = i
		streams[i] = d.Register(f.RouterName(i))
	}
	run := &ingestRun{expected: f.TotalEvents(), appended: make([]int, f.Routers)}
	lats := make([]time.Duration, 0, run.expected)
	d.Log().Subscribe(func(io capture.IO) {
		now := time.Now()
		i, ok := index[io.Router]
		if !ok {
			run.foreign++
			return
		}
		run.appended[i]++
		if t, ok := clocks[i].readAt(); ok {
			lats = append(lats, now.Sub(t))
		}
	})

	before := reg.Snapshot()
	start := time.Now()
	root := tr.open(1, 0, "event", "ingest")
	errs := make([]error, f.Routers)
	readers := make([]*timedReader, f.Routers)
	var wg sync.WaitGroup
	for i := range streams {
		readers[i] = &timedReader{r: f.Reader(i), c: clocks[i]}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.do(1, root, "stream", "Stream.Consume "+f.RouterName(i), nil, func() {
				errs[i] = streams[i].Consume(readers[i])
			})
		}(i)
	}
	wg.Wait()
	tr.do(1, root, "stream", "Daemon.Wait", nil, func() { err = d.Wait() })
	tr.close(root)
	run.elapsed = time.Since(start)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if err != nil {
		return nil, err
	}
	run.delta = deltaOf(before, reg.Snapshot())
	run.events = d.Log().TotalAppended()
	run.window = d.Log().Len()
	run.p50, run.p90, run.p99 = median(lats), quantile(lats, 0.90), quantile(lats, 0.99)
	run.spans = tr.all()
	for _, r := range readers {
		run.lines = append(run.lines, r.lines)
	}
	if err := run.check(); err != nil {
		return nil, err
	}
	if wantHeap {
		// Compact once more so the retained window is the steady-state one
		// (the look-back floor), not whatever the last CompactEvery
		// boundary left, and drop the benchmark's own bookkeeping (the
		// subscriber keeps it reachable): the heap measured is the daemon's.
		if err := d.Compact(); err != nil {
			return nil, fmt.Errorf("final compaction: %w", err)
		}
		lats = nil
		for _, c := range clocks {
			c.marks = nil
		}
		run.heapMB = heapMB()
		runtime.KeepAlive(d)
	}
	return run, nil
}

// check verifies an ingest: every event the fleet emitted was appended,
// no line failed to parse, and each router's stream put exactly one event
// in the log per line its reader produced, under that router's name.
func (r *ingestRun) check() error {
	if r.events != uint64(r.expected) {
		return fmt.Errorf("ingested %d events, fleet emitted %d", r.events, r.expected)
	}
	if pe := r.delta["ciscolog.parse.errors"]; pe != 0 {
		return fmt.Errorf("%d parse errors", pe)
	}
	if r.foreign != 0 {
		return fmt.Errorf("%d appended events name no fleet router", r.foreign)
	}
	for i, n := range r.lines {
		if r.appended[i] != n {
			return fmt.Errorf("router r%d: %d events appended, %d lines read", i, r.appended[i], n)
		}
	}
	return nil
}

// linesRead is the lines all readers produced.
func (r *ingestRun) linesRead() int {
	n := 0
	for _, l := range r.lines {
		n += l
	}
	return n
}

func runLogIngest(cfg runConfig) (*outcome, error) {
	// Set-up: a fresh daemon ingests a small fleet, setupRepeats times.
	warm := fleetFor(cfg.seed, warmWaves)
	_, setup, err := timeSetup(func() (*ingestRun, error) { return ingest(warm, nil, false) },
		func(*ingestRun) {})
	if err != nil {
		return nil, err
	}
	waves := cfg.events
	if waves == 0 {
		waves = int(cfg.phaseLen().Seconds() * wavesPerSecond)
	}
	f := fleetFor(cfg.seed, waves)

	plain, err := ingest(f, nil, true)
	if err != nil {
		return nil, err
	}
	eventsPerS := float64(plain.events) / plain.elapsed.Seconds()
	out := &outcome{
		attempted: int(plain.events),
		e2e:       e2eSet(setup, eventsPerS, plain.p50, plain.p90, plain.heapMB),
		named: map[string]float64{
			"events_per_s": eventsPerS, "setup_s": setup.Seconds(), "heap_mb": plain.heapMB,
			"line_p99_ms": ms(plain.p99),
		},
		counts: map[string]int64{"events": int64(plain.events), "waves": int64(waves),
			"compactions": plain.delta["stream.compactions"], "evicted": plain.delta["stream.compact.evicted"],
			"window": int64(plain.window)},
	}
	if cfg.trace {
		traced, err := ingest(f, newTracer(), false)
		if err != nil {
			return nil, err
		}
		out.attempted += int(traced.events)
		ev := float64(traced.events)
		dl := traced.delta
		vals := map[string]float64{
			"ciscolog.parse_lines":   dl.f("ciscolog.parse.lines") / ev,
			"ciscolog.parse_errors":  dl.f("ciscolog.parse.errors"),
			"ciscolog.parse_ms":      dl.f("ciscolog.parse.ns") / 1e6 / (ev / 1000),
			"stream.compactions":     dl.f("stream.compactions") / ev,
			"stream.compact_evicted": dl.f("stream.compact.evicted") / ev,
			"stream.window_events":   float64(traced.window),
			"hbr.cache_hits":         dl.f("infer.cache.hits") / ev,
			"hbr.cache_misses":       dl.f("infer.cache.misses") / ev,
			"hbr.cache_hit_ratio":    ratio(dl.f("infer.cache.hits"), dl.f("infer.cache.misses")),
			"capture.ios_per_event":  float64(traced.events) / float64(traced.linesRead()),
		}
		out.layers = layerSet(vals, traced.spans, int(traced.events), traced.p50, plain.p50)
		out.spans = traced.spans
	}
	return out, nil
}
