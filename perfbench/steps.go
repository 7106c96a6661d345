package main

import (
	"strings"
	"time"

	"hbverify/internal/metrics"
)

// setupRepeats is how many times a workload builds its state from scratch;
// setup_s reports the median build (plus the one warm-up that follows the
// last build).
const setupRepeats = 3

// timeSetup calls build setupRepeats times and returns the last result
// with the median time one build took. Each earlier result is closed
// before the next build starts, outside the timed part.
func timeSetup[T any](build func() (T, error), close func(T)) (T, time.Duration, error) {
	var last T
	var builds []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			close(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		builds = append(builds, time.Since(t0))
		last = v
	}
	return last, median(builds), nil
}

// stepResult is one event of a step-driven workload.
type stepResult struct {
	// lat is the event's end-to-end interval: from the moment the
	// simulator has quiesced after the event to the verdict (or the
	// re-verified repair). Convergence is excluded.
	lat time.Duration
	// busy is the event's wall time with convergence included and the
	// benchmark's own correctness checks excluded.
	busy time.Duration
	// parts are named sub-intervals reported on the record line.
	parts map[string]time.Duration
}

// stepper is a workload driven one event at a time.
type stepper interface {
	// step runs event ev, checks its outputs, and adds its per-layer
	// figures to vals (keys starting "n." are exact work counts).
	step(tr *tracer, ev uint64, vals map[string]float64) (stepResult, error)
	// warm runs the untimed warm-up that set-up ends with.
	warm() error
	registry() *metrics.Registry
	// layerVals turns a traced phase into per-layer metric values.
	layerVals(p *phase) map[string]float64
	close()
}

// phase is one timed run of events.
type phase struct {
	lats   []time.Duration
	parts  map[string][]time.Duration
	busy   time.Duration
	events int
	vals   map[string]float64
	delta  regDelta
	spans  []span
}

// perEvent divides a summed value by the phase's events.
func (p *phase) perEvent(name string) float64 {
	if p.events == 0 {
		return 0
	}
	return p.vals[name] / float64(p.events)
}

// perEventDelta divides a registry counter movement by the phase's events.
func (p *phase) perEventDelta(name string) float64 {
	if p.events == 0 {
		return 0
	}
	return p.delta.f(name) / float64(p.events)
}

// counts returns the phase's exact work counts.
func (p *phase) counts() map[string]int64 {
	out := map[string]int64{"events": int64(p.events)}
	for k, v := range p.vals {
		if strings.HasPrefix(k, "n.") {
			out[k[2:]] = int64(v)
		}
	}
	return out
}

// runPhase steps st for cfg.phaseLen(), or for cfg.events events when
// that is set.
func runPhase(st stepper, cfg runConfig, tr *tracer, firstEv uint64) (*phase, error) {
	p := &phase{parts: map[string][]time.Duration{}, vals: map[string]float64{}}
	before := st.registry().Snapshot()
	start := time.Now()
	done := func() bool {
		if cfg.events > 0 {
			return p.events >= cfg.events
		}
		return time.Since(start) >= cfg.phaseLen()
	}
	for ev := firstEv; !done(); ev++ {
		r, err := st.step(tr, ev, p.vals)
		if err != nil {
			return nil, err
		}
		p.lats = append(p.lats, r.lat)
		p.busy += r.busy
		for k, d := range r.parts {
			p.parts[k] = append(p.parts[k], d)
		}
		p.events++
	}
	p.delta = deltaOf(before, st.registry().Snapshot())
	p.spans = tr.all()
	return p, nil
}

// runStepWorkload is the shared shape of the step-driven workloads: build
// setupRepeats times (median), warm up, run the untraced phase, and for a
// traced run a second, traced phase.
func runStepWorkload(cfg runConfig, build func(seed int64) (stepper, error),
	named func(p *phase) map[string]float64) (*outcome, error) {
	st, built, err := timeSetup(func() (stepper, error) { return build(cfg.seed) }, stepper.close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	t0 := time.Now()
	if err := st.warm(); err != nil {
		return nil, err
	}
	setup := built + time.Since(t0)

	plain, err := runPhase(st, cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	out := &outcome{
		attempted: plain.events,
		e2e: e2eSet(setup, float64(plain.events)/plain.busy.Seconds(),
			median(plain.lats), quantile(plain.lats, 0.90), heap),
		named:  named(plain),
		counts: plain.counts(),
	}
	out.named["setup_s"] = setup.Seconds()
	out.named["events_per_s"] = out.e2e["events_per_s"].Value
	out.named["heap_mb"] = heap
	if cfg.trace {
		traced, err := runPhase(st, cfg, newTracer(), uint64(plain.events)+1)
		if err != nil {
			return nil, err
		}
		out.attempted += traced.events
		out.layers = layerSet(st.layerVals(traced), traced.spans, traced.events,
			median(traced.lats), median(plain.lats))
		out.spans = traced.spans
	}
	return out, nil
}
