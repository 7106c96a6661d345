package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"hbverify"
	"hbverify/internal/config"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/serve"
	"hbverify/internal/verify"
)

const (
	// queryRate is the fixed offered rate of the timed phase, queries/s.
	queryRate = 5_000
	// queryChurnEvery is the generator slots per toggle of the unrelated
	// static route (20 config edits/s at queryRate).
	queryChurnEvery = 250
	// querySpanEvery samples one query in this many into the span log.
	querySpanEvery = 16
	// queryPasses is how many seeded permutations of the queries make up
	// the sequence the callers cycle through, so the queries that follow
	// a churn toggle, and miss the plan cache, vary over a run instead of
	// repeating one permutation's alignment with the toggles.
	queryPasses = 128
)

// churnPrefix is the static route the query generator toggles; no query
// asks about it, so every true answer is unchanged by the churn.
var churnPrefix = netip.MustParsePrefix("55.0.0.0/24")

// fatTreeQuery runs an open-loop query mix against Pipeline.ServeEngine on
// a k=8 fat-tree while the same generator toggles a static route on a
// rotating edge router.
type fatTreeQuery struct {
	n       *network.Network
	p       *hbverify.Pipeline
	eng     *serve.Engine
	edges   []string
	queries []serve.Query
	// want is each query's answer from a cold, uncached checker.
	want  []coldAnswer
	order []int // seeded query sequence, cycled by the callers
	// churn state, owned by caller 0.
	toggles int
	on      map[string]bool
}

type coldAnswer struct {
	ok     bool
	reason string
}

func buildFatTreeQuery(seed int64) (*fatTreeQuery, error) {
	n, edges, loops, err := buildFatTree(seed)
	if err != nil {
		return nil, err
	}
	w := &fatTreeQuery{n: n, p: hbverify.NewPipeline(n, edges), edges: edges, on: map[string]bool{}}
	half := fatTreeK / 2
	for si, src := range edges {
		for di, pfx := range loops {
			if si == di {
				continue
			}
			switch (si + di) % 3 {
			case 0:
				w.queries = append(w.queries, serve.Reachability(src, pfx))
			case 1:
				w.queries = append(w.queries, serve.Waypoint(src, pfx, fmt.Sprintf("p%da0", di/half)))
			default:
				w.queries = append(w.queries, serve.Isolation(src, pfx, "core0"))
			}
		}
	}
	w.want = coldAnswers(w.p, w.queries)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < queryPasses; i++ {
		w.order = append(w.order, rng.Perm(len(w.queries))...)
	}
	w.eng = w.p.ServeEngine(nil)
	return w, nil
}

// coldAnswers evaluates every query on a fresh walker with an uncached
// checker: the reference the engine's answers must match.
func coldAnswers(p *hbverify.Pipeline, qs []serve.Query) []coldAnswer {
	out := make([]coldAnswer, len(qs))
	walker := p.Walker()
	for i, q := range qs {
		rep := verify.NewChecker(walker, []string{q.Source}).Check([]verify.Policy{q.Policy})
		out[i] = coldAnswer{ok: rep.OK()}
		if !rep.OK() {
			out[i].reason = rep.Violations[0].Reason
		}
	}
	return out
}

func (w *fatTreeQuery) close() {
	w.eng.Close()
	w.p.Close()
}

// check compares one engine answer with the cold reference.
func (w *fatTreeQuery) check(i int, a serve.Answer) error {
	want := w.want[i]
	reason := ""
	if len(a.Violations) > 0 {
		reason = a.Violations[0].Reason
	}
	if a.OK != want.ok || reason != want.reason {
		return fmt.Errorf("query %d (%s %s): engine ok=%v %q, cold checker ok=%v %q",
			i, w.queries[i].Source, w.queries[i].Policy, a.OK, reason, want.ok, want.reason)
	}
	return nil
}

// ask puts query qi to the engine and checks the answer.
func (w *fatTreeQuery) ask(qi int) (serve.Answer, error) {
	a, err := w.eng.Query(w.queries[qi])
	if err != nil {
		return a, err
	}
	return a, w.check(qi, a)
}

// toggle flips the churn static route on the next edge router in turn.
func (w *fatTreeQuery) toggle() error {
	r := w.edges[w.toggles%len(w.edges)]
	w.toggles++
	on := !w.on[r]
	w.on[r] = on
	_, err := w.n.UpdateConfig(r, "toggle static "+churnPrefix.String(), func(c *config.Router) {
		if on {
			c.Statics = append(c.Statics, config.StaticRoute{Prefix: churnPrefix,
				NextHop: netip.MustParseAddr("10.255.255.1")})
			return
		}
		kept := c.Statics[:0]
		for _, st := range c.Statics {
			if st.Prefix != churnPrefix {
				kept = append(kept, st)
			}
		}
		c.Statics = kept
	})
	return err
}

// loopResult is one open-loop run.
type loopResult struct {
	lats    []time.Duration // due → answered, per query (shed: the maximum)
	answers []time.Duration // the engine's own Answer.Latency
	late    []time.Duration // generator lateness per slot
	sent    int
	shed    int
	// busy is the callers' time spent in Engine.Query and in churn
	// toggles, summed over callers.
	busy  time.Duration
	spans []span
}

// capacity is the offered rate at which the callers would be busy all
// the time: callers divided by the mean time a slot keeps its caller busy
// (its query, plus its share of the churn toggles). Beyond it the open
// loop's backlog grows.
func (r *loopResult) capacity() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(queryCallers()) * float64(r.sent) / r.busy.Seconds()
}

// openLoop offers queries at rate for d (or n queries when n > 0). The
// schedule's slots are dealt round-robin to queryCallers callers. Each
// caller spins until its slot's due time and then asks the query itself, so a slow answer delays that caller's later slots and
// the delay counts against them (latency runs from the due time). Caller 0
// also toggles the churn route once for every queryChurnEvery-slot
// boundary its slots reach, so the churn rate does not depend on the
// number of callers, and only one goroutine ever toggles. Every answer is
// checked.
func (w *fatTreeQuery) openLoop(rate float64, d time.Duration, n int, tr *tracer, firstEv uint64) (*loopResult, error) {
	total := n
	if total <= 0 {
		total = int(rate * d.Seconds())
	}
	callers := queryCallers()
	res := make([]loopResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int, r *loopResult) {
			defer wg.Done()
			churned := -1 // last churn boundary caller 0 toggled for
			for slot := c; slot < total; slot += callers {
				due := start.Add(time.Duration(float64(slot) / rate * float64(time.Second)))
				waitUntil(due)
				for c == 0 && churned < slot/queryChurnEvery {
					churned++
					tt := time.Now()
					if errs[c] = w.toggle(); errs[c] != nil {
						return
					}
					r.busy += time.Since(tt)
				}
				qi := w.order[slot%len(w.order)]
				t0 := time.Now()
				r.late = append(r.late, t0.Sub(due))
				a, err := w.ask(qi)
				t1 := time.Now()
				r.busy += t1.Sub(t0)
				r.sent++
				if errors.Is(err, serve.ErrOverloaded) {
					// A shed query misses any latency limit.
					r.shed++
					r.lats = append(r.lats, math.MaxInt64)
					continue
				}
				if err != nil {
					errs[c] = err
					return
				}
				r.lats = append(r.lats, t1.Sub(due))
				r.answers = append(r.answers, a.Latency)
				if tr != nil && slot%querySpanEvery == 0 {
					ev := firstEv + uint64(slot)
					root := tr.add(ev, 0, "event", "query", due, t1)
					tr.add(ev, root, "serve", "Engine.Query", t0, t1)
				}
			}
		}(c, &res[c])
	}
	wg.Wait()
	var out loopResult
	for c, r := range res {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.lats = append(out.lats, r.lats...)
		out.answers = append(out.answers, r.answers...)
		out.late = append(out.late, r.late...)
		out.sent += r.sent
		out.shed += r.shed
		out.busy += r.busy
	}
	out.spans = tr.all()
	return &out, nil
}

// queryCallers is how many goroutines put queries to the engine:
// GOMAXPROCS-1, at least one, leaving a processor to the runtime and the
// engine's own goroutines.
func queryCallers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// waitUntil returns at t. It spins: Go's timers wake about a millisecond
// late on Linux, far more than the gap between a caller's queries, and a
// caller that sleeps in the kernel between queries pays the host's vCPU
// wake-up latency on every one (milliseconds when the host is contended).
func waitUntil(t time.Time) {
	if wait := time.Until(t); wait > 2*time.Millisecond {
		time.Sleep(wait - time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}

// agreeUncached asks every query of an engine that never caches or
// coalesces and checks it against the cold answers.
func (w *fatTreeQuery) agreeUncached() error {
	eng := serve.New(serve.Config{Executor: serve.WalkerExecutor{W: w.p.Walker()},
		Metrics: metrics.NewRegistry(), DisableCache: true})
	defer eng.Close()
	for i, q := range w.queries {
		a, err := eng.Query(q)
		if err != nil {
			return err
		}
		if err := w.check(i, a); err != nil {
			return fmt.Errorf("uncached engine: %w", err)
		}
	}
	return nil
}

func runFatTreeQuery(cfg runConfig) (*outcome, error) {
	w, built, err := timeSetup(func() (*fatTreeQuery, error) { return buildFatTreeQuery(cfg.seed) },
		(*fatTreeQuery).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	// Warm-up: one pass over every query fills the plan cache.
	t0 := time.Now()
	if _, err := w.openLoop(queryRate, 0, len(w.queries), nil, 0); err != nil {
		return nil, err
	}
	setup := built + time.Since(t0)

	reg := w.p.Metrics
	plain, err := w.openLoop(queryRate, cfg.phaseLen(), cfg.events, nil, 1)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	maxQPS := plain.capacity()
	out := &outcome{
		attempted: plain.sent,
		failed:    plain.shed,
		e2e:       e2eSet(setup, maxQPS, median(plain.lats), quantile(plain.lats, 0.90), heap),
		named: map[string]float64{
			"query_p50_us": us(median(plain.lats)), "query_p90_us": us(quantile(plain.lats, 0.90)),
			"query_p99_us": us(quantile(plain.lats, 0.99)), "gen_late_p99_us": us(quantile(plain.late, 0.99)),
			"query_max_qps": maxQPS, "offered_qps": queryRate,
			"setup_s": setup.Seconds(), "heap_mb": heap,
		},
		counts: map[string]int64{"events": int64(plain.sent), "answered": int64(plain.sent - plain.shed)},
	}
	if cfg.trace {
		before := reg.Snapshot()
		sb := w.eng.Stats()
		traced, err := w.openLoop(queryRate, cfg.phaseLen(), cfg.events, newTracer(), uint64(plain.sent)+1)
		if err != nil {
			return nil, err
		}
		delta := deltaOf(before, reg.Snapshot())
		sa := w.eng.Stats()
		st := serve.Stats{Queries: sa.Queries - sb.Queries, PlanHits: sa.PlanHits - sb.PlanHits,
			Coalesced: sa.Coalesced - sb.Coalesced, Executed: sa.Executed - sb.Executed,
			Rejected: sa.Rejected - sb.Rejected}
		out.attempted += traced.sent
		out.failed += traced.shed
		q := float64(traced.sent)
		vals := map[string]float64{
			"serve.answer_us_p50":  us(median(traced.answers)),
			"serve.answer_us_p99":  us(quantile(traced.answers, 0.99)),
			"serve.plan_hit_ratio": st.HitRatio(),
			"serve.coalesced":      float64(st.Coalesced) / q,
			"serve.executed":       float64(st.Executed) / q,
			"serve.rejected":       float64(st.Rejected) / q,
			"gen.late_p99_us":      us(quantile(traced.late, 0.99)),
			"eqclass.resigned":     delta.f("eqclass.resigned") / q,
		}
		sampled := (traced.sent + querySpanEvery - 1) / querySpanEvery
		out.layers = layerSet(vals, traced.spans, sampled, median(traced.lats), median(plain.lats))
		out.spans = traced.spans
	}
	if err := w.agreeUncached(); err != nil {
		return nil, err
	}
	return out, nil
}
