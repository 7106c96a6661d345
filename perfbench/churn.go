package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"time"

	"hbverify"
	"hbverify/internal/dist"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

const (
	// fatTreeK sizes both fat-tree workloads: k=8 is 80 routers, 32 edges.
	fatTreeK = 8
	// churnGap is the virtual idle time before each flap. It exceeds the
	// inference look-back (60 s plus twice the 1 s skew slack), so
	// CompactLog keeps a window of one event.
	churnGap = 90 * time.Second
	// churnBlock is how many flaps hold exactly one isolation episode
	// (four downs, the fourth isolating an edge, then four ups); the rest
	// are single edge-agg down/up pairs.
	churnBlock = 64
	// churnWarm is the untimed warm-up, in flaps.
	churnWarm = 8
	// closeWait bounds how long close waits for the fleet to shut down.
	closeWait = 10 * time.Second
)

// flap is one link state change.
type flap struct {
	a, b     string
	up       bool
	isolates bool // this change cuts an edge off: verdicts must be violations
}

// flapPlan deals flaps from a seeded schedule, one block at a time.
type flapPlan struct {
	rng   *rand.Rand
	queue []flap
}

func (f *flapPlan) next() flap {
	if len(f.queue) == 0 {
		f.refill()
	}
	x := f.queue[0]
	f.queue = f.queue[1:]
	return x
}

func (f *flapPlan) refill() {
	half := fatTreeK / 2
	edge := func() (int, int) { return f.rng.Intn(fatTreeK), f.rng.Intn(half) }
	pairs := (churnBlock - 2*half) / 2
	at := f.rng.Intn(pairs + 1)
	for i := 0; i <= pairs; i++ {
		if i == at {
			p, e := edge()
			name := fmt.Sprintf("p%de%d", p, e)
			for a := 0; a < half; a++ {
				f.queue = append(f.queue, flap{a: name, b: fmt.Sprintf("p%da%d", p, a), isolates: a == half-1})
			}
			for a := 0; a < half; a++ {
				f.queue = append(f.queue, flap{a: name, b: fmt.Sprintf("p%da%d", p, a), up: true})
			}
		}
		if i < pairs {
			p, e := edge()
			a := f.rng.Intn(half)
			l := flap{a: fmt.Sprintf("p%de%d", p, e), b: fmt.Sprintf("p%da%d", p, a)}
			up := l
			up.up = true
			f.queue = append(f.queue, l, up)
		}
	}
}

// fatTreeChurn flaps edge-agg links of a k=8 OSPF fat-tree and, after
// each flap converges, verifies the same policies centrally
// (Pipeline.Verify) and through local-check certificates
// (Pipeline.VerifyLocalChecks), then compacts the capture log.
type fatTreeChurn struct {
	n     *network.Network
	p     *hbverify.Pipeline
	edges []string
	pols  []verify.Policy
	plan  *flapPlan
}

// buildFatTree converges a k=8 fat-tree and returns it with its edge
// routers and their loopback prefixes.
func buildFatTree(seed int64) (*network.Network, []string, []netip.Prefix, error) {
	n, err := network.BuildFatTree(seed, fatTreeK)
	if err != nil {
		return nil, nil, nil, err
	}
	n.Start()
	if err := n.Run(); err != nil {
		return nil, nil, nil, err
	}
	// The pipeline attaches to a running network: the initial
	// convergence (~122K I/Os) is history it never saw, so evict it
	// rather than fold it (a full inference over it takes ~20 s).
	n.Log.CompactBefore(n.Log.TotalAppended() + 1)
	var edges []string
	var loops []netip.Prefix
	for p := 0; p < fatTreeK; p++ {
		for i := 0; i < fatTreeK/2; i++ {
			edges = append(edges, fmt.Sprintf("p%de%d", p, i))
			loops = append(loops, route.MustPrefix(fmt.Sprintf("9.1.%d.%d/32", p, i+1)))
		}
	}
	return n, edges, loops, nil
}

func buildFatTreeChurn(seed int64) (*fatTreeChurn, error) {
	n, edges, loops, err := buildFatTree(seed)
	if err != nil {
		return nil, err
	}
	w := &fatTreeChurn{n: n, p: hbverify.NewPipeline(n, edges), edges: edges,
		plan: &flapPlan{rng: rand.New(rand.NewSource(seed))}}
	for _, pfx := range loops {
		w.pols = append(w.pols,
			verify.Policy{Kind: verify.Reachable, Prefix: pfx},
			verify.Policy{Kind: verify.NoLoop, Prefix: pfx},
			verify.Policy{Kind: verify.NoBlackhole, Prefix: pfx})
	}
	if rep := w.p.Verify(w.pols); !rep.OK() {
		return nil, fmt.Errorf("converged fat-tree violates its policies: %s", rep.Summary())
	}
	if _, err := w.p.VerifyLocalChecks(w.pols); err != nil {
		return nil, fmt.Errorf("first local-check round: %w", err)
	}
	w.p.CompactLog(0)
	return w, nil
}

func (w *fatTreeChurn) warm() error {
	vals := map[string]float64{}
	for i := 0; i < churnWarm; i++ {
		if _, err := w.step(nil, 0, vals); err != nil {
			return err
		}
	}
	return nil
}

func (w *fatTreeChurn) registry() *metrics.Registry { return w.p.Metrics }

// close shuts the pipeline and its fleet down, waiting at most closeWait.
// Pipeline.Close joins every fleet connection handler, and a handler
// parked in a read can hold it for up to dist's two-minute idle timeout,
// which would push a run past its time limit. A shutdown that overruns is
// reported and left to finish on its own.
func (w *fatTreeChurn) close() {
	done := make(chan struct{})
	go func() {
		w.p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(closeWait):
		fmt.Fprintf(os.Stderr, "perfbench: fleet shutdown still blocked after %v; going on without it\n", closeWait)
	}
}

// flapRun is what one flap's calls returned, with their timings.
type flapRun struct {
	f    flap
	rep  verify.Report // central
	cold verify.Report // cold, uncached reference
	st   dist.Stats    // local-check round

	converge, central, local, compact, busy time.Duration
	window                                  int
	ios, simEvents                          uint64
}

// run performs one flap: idle gap, link change, converge, central verify,
// local-check verify, compact; then, untimed, the cold reference check.
func (w *fatTreeChurn) run(tr *tracer, ev uint64) (*flapRun, error) {
	n, p, reg := w.n, w.p, w.p.Metrics
	r := &flapRun{f: w.plan.next()}
	f := r.f
	ios0, sim0 := n.Log.TotalAppended(), n.Sched.Processed
	var err error
	t0 := time.Now()
	root := tr.open(ev, 0, "event", "churn.flap")
	tr.do(ev, root, "network", "SetLinkUp+Run", nil, func() {
		n.Sched.After(churnGap, func() {})
		if err = n.Run(); err != nil {
			return
		}
		if _, err = n.SetLinkUp(f.a, f.b, f.up); err != nil {
			return
		}
		err = n.Run()
	})
	if err != nil {
		return nil, fmt.Errorf("flap %d (%s-%s up=%v): %w", ev, f.a, f.b, f.up, err)
	}
	r.converge = time.Since(t0)

	tv := time.Now()
	tr.do(ev, root, "verify", "Pipeline.Verify", reg, func() { r.rep = p.Verify(w.pols) })
	r.central = time.Since(tv)
	tl := time.Now()
	id := tr.open(ev, root, "localck", "Pipeline.VerifyLocalChecks")
	r.st, err = p.VerifyLocalChecks(w.pols)
	tr.close(id)
	r.local = time.Since(tl)
	if err != nil {
		return nil, fmt.Errorf("flap %d: local checks: %w", ev, err)
	}
	if r.st.Relabeled {
		tr.rename(id, "dist", "Pipeline.VerifyLocalChecks(relabel)")
	}
	r.window = n.Log.Len()
	tc := time.Now()
	tr.do(ev, root, "hbr", "Pipeline.CompactLog", reg, func() { p.CompactLog(0) })
	r.compact = time.Since(tc)
	tr.close(root)
	r.busy = time.Since(t0)
	r.ios, r.simEvents = n.Log.TotalAppended()-ios0, n.Sched.Processed-sim0
	r.cold = verify.NewChecker(p.Walker(), w.edges).Check(w.pols)
	return r, nil
}

// check verifies a flap's verdicts: the central one equals the cold
// checker's, the local-check one equals the central one, it is a
// violation exactly when the flap isolated an edge, and no fleet walk
// failed.
func (r *flapRun) check(ev uint64) error {
	f := r.f
	if got, want := violationKeys(r.rep, true), violationKeys(r.cold, true); got != want || r.rep.Checked != r.cold.Checked {
		return fmt.Errorf("flap %d (%s-%s up=%v): central verdict %q differs from cold checker %q",
			ev, f.a, f.b, f.up, r.rep.Summary(), r.cold.Summary())
	}
	if got, want := violationKeys(r.st.Report, false), violationKeys(r.rep, false); got != want {
		return fmt.Errorf("flap %d (%s-%s up=%v): local-check verdict %q differs from central %q",
			ev, f.a, f.b, f.up, r.st.Report.Summary(), r.rep.Summary())
	}
	if r.rep.OK() == f.isolates {
		return fmt.Errorf("flap %d (%s-%s up=%v): isolating=%v but verdict %s",
			ev, f.a, f.b, f.up, f.isolates, r.rep.Summary())
	}
	if r.st.Errors > 0 {
		return fmt.Errorf("flap %d: %d fleet walks failed", ev, r.st.Errors)
	}
	return nil
}

func (w *fatTreeChurn) step(tr *tracer, ev uint64, vals map[string]float64) (stepResult, error) {
	r, err := w.run(tr, ev)
	if err != nil {
		return stepResult{}, err
	}
	if err := r.check(ev); err != nil {
		return stepResult{}, err
	}
	vals["converge_ms"] += ms(r.converge)
	vals["compact_ms"] += ms(r.compact)
	vals["verify_ms"] += ms(r.central)
	vals["window_ios"] += float64(r.window)
	if r.st.Relabeled {
		vals["relabel_ms"] += ms(r.local)
		vals["relabels"]++
	} else {
		vals["certify_ms"] += ms(r.local)
		vals["certifies"]++
	}
	vals["checks"] += float64(r.st.Walks)
	vals["n.ios"] += float64(r.ios)
	vals["n.sim_events"] += float64(r.simEvents)
	vals["n.walks_executed"] += float64(r.rep.Walks)
	vals["n.walks_cached"] += float64(r.rep.Cached)
	vals["n.frames"] += float64(r.st.Frames)
	vals["n.bytes"] += float64(r.st.Bytes)
	vals["n.certified"] += float64(r.st.LocalCertified)
	vals["n.escalated"] += float64(r.st.Escalated)
	if !r.rep.OK() {
		vals["n.violating_flaps"]++
	}
	return stepResult{lat: r.central + r.local, busy: r.busy,
		parts: map[string]time.Duration{"verdict": r.central, "local_verdict": r.local}}, nil
}

// violationKeys renders a report's violations as a sorted, comparable
// string: (policy, source), plus the reason when withReason is set.
func violationKeys(r verify.Report, withReason bool) string {
	keys := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		k := v.Policy.String() + "@" + v.Source
		if withReason {
			k += ":" + v.Reason
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

func (w *fatTreeChurn) layerVals(p *phase) map[string]float64 {
	hits, misses := p.delta.f("infer.cache.hits"), p.delta.f("infer.cache.misses")
	executed, cached := p.vals["n.walks_executed"], p.vals["n.walks_cached"]
	per := func(sum, n string) float64 {
		if p.vals[n] == 0 {
			return 0
		}
		return p.vals[sum] / p.vals[n]
	}
	certRatio := 0.0
	if p.vals["checks"] > 0 {
		certRatio = p.vals["n.certified"] / p.vals["checks"]
	}
	return map[string]float64{
		"network.converge_ms":      p.perEvent("converge_ms"),
		"network.sim_events":       p.perEvent("n.sim_events"),
		"capture.ios_per_event":    p.perEvent("n.ios"),
		"verify.check_ms":          p.perEvent("verify_ms"),
		"verify.walks_executed":    p.perEvent("n.walks_executed"),
		"verify.walks_cached":      p.perEvent("n.walks_cached"),
		"verify.cache_hit_ratio":   ratio(cached, executed),
		"eqclass.resigned":         p.perEventDelta("eqclass.resigned"),
		"dist.relabel_round_ms":    per("relabel_ms", "relabels"),
		"localck.certify_round_ms": per("certify_ms", "certifies"),
		"dist.frames_per_event":    p.perEvent("n.frames"),
		"dist.bytes_per_event":     p.perEvent("n.bytes"),
		"localck.certified":        p.perEvent("n.certified"),
		"localck.escalated":        p.perEvent("n.escalated"),
		"localck.certified_ratio":  certRatio,
		"dist.errors":              p.delta.f("dist.errors"),
		"hbr.compact_ms":           p.perEvent("compact_ms"),
		"hbr.window_ios":           p.perEvent("window_ios"),
		"hbr.cache_hits":           p.perEventDelta("infer.cache.hits"),
		"hbr.cache_misses":         p.perEventDelta("infer.cache.misses"),
		"hbr.cache_hit_ratio":      ratio(hits, misses),
	}
}

func runFatTreeChurn(cfg runConfig) (*outcome, error) {
	return runStepWorkload(cfg,
		func(seed int64) (stepper, error) { return buildFatTreeChurn(seed) },
		func(p *phase) map[string]float64 {
			return map[string]float64{
				"verdict_p50_ms":       ms(median(p.parts["verdict"])),
				"verdict_p90_ms":       ms(quantile(p.parts["verdict"], 0.90)),
				"local_verdict_p50_ms": ms(median(p.parts["local_verdict"])),
				"local_verdict_p90_ms": ms(quantile(p.parts["local_verdict"], 0.90)),
			}
		})
}
