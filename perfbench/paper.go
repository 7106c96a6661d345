package main

import (
	"fmt"
	"net/netip"
	"reflect"
	"time"

	"hbverify"
	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/verify"
)

// paperRepair is the paper's Fig. 2 loop run back to back: each cycle
// misconfigures R2's uplink local-pref to 10, converges, verifies (a
// violation), detects and repairs by rollback, converges, re-verifies (ok)
// and compacts the capture log.
type paperRepair struct {
	pn   *network.PaperNet
	p    *hbverify.Pipeline
	pols []verify.Policy
}

// paperWarmCap caps the warm-up; the window fills in about 100 cycles.
const paperWarmCap = 1000

func buildPaperRepair(seed int64) (*paperRepair, error) {
	pn, err := network.BuildPaper(seed, network.DefaultPaperOpts())
	if err != nil {
		return nil, err
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		return nil, err
	}
	w := &paperRepair{
		pn:   pn,
		p:    hbverify.NewPipeline(pn.Network, []string{"r1", "r2", "r3"}),
		pols: []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}},
	}
	if rep := w.p.Verify(w.pols); !rep.OK() {
		return nil, fmt.Errorf("converged paper network violates its policy: %s", rep.Summary())
	}
	return w, nil
}

// warm runs cycles until CompactLog first evicts, i.e. until the
// look-back window (60 s config window plus twice the skew slack) is full.
func (w *paperRepair) warm() error {
	vals := map[string]float64{}
	for i := 0; i < paperWarmCap; i++ {
		if _, err := w.step(nil, 0, vals); err != nil {
			return err
		}
		if vals["n.evicted"] > 0 {
			return nil
		}
	}
	return fmt.Errorf("look-back window never filled in %d cycles", paperWarmCap)
}

func (w *paperRepair) registry() *metrics.Registry { return w.p.Metrics }
func (w *paperRepair) close()                      { w.p.Close() }

// cycle is what one cycle's calls returned, with their timings.
type cycle struct {
	edit          capture.IO
	rep, rep2     verify.Report
	diag          *repair.Diagnosis
	before, after map[string]map[netip.Prefix]fib.Entry

	lat, verdict, detect, converge, compact, busy time.Duration
	window, evicted                               int
	ios, simEvents                                uint64
}

// run performs one cycle: misconfigure, converge, verify, detect and
// repair, converge, re-verify, compact.
func (w *paperRepair) run(tr *tracer, ev uint64) (*cycle, error) {
	pn, p, reg := w.pn, w.p, w.p.Metrics
	c := &cycle{before: pn.FIBSnapshot()}
	ios0, sim0 := pn.Log.TotalAppended(), pn.Sched.Processed
	var err error
	t0 := time.Now()
	root := tr.open(ev, 0, "event", "paper.cycle")
	tr.do(ev, root, "network", "UpdateConfig+Run", nil, func() {
		c0 := time.Now()
		c.edit, err = pn.UpdateConfig("r2", "set uplink local-pref 10", func(cfg *config.Router) {
			cfg.BGP.Neighbors[len(cfg.BGP.Neighbors)-1].LocalPref = 10
		})
		if err == nil {
			err = pn.Run()
		}
		c.converge += time.Since(c0)
	})
	if err != nil {
		return nil, fmt.Errorf("cycle %d: misconfigure r2: %w", ev, err)
	}

	tv := time.Now()
	tr.do(ev, root, "verify", "Pipeline.Verify", reg, func() { c.rep = p.Verify(w.pols) })
	c.verdict = time.Since(tv)
	td := time.Now()
	tr.do(ev, root, "repair", "Pipeline.DetectAndRepair", reg, func() { c.diag, err = p.DetectAndRepair(w.pols) })
	c.detect = time.Since(td)
	c.lat = time.Since(tv)
	if err != nil {
		return nil, fmt.Errorf("cycle %d: detect and repair: %w", ev, err)
	}
	tr.do(ev, root, "network", "Run", nil, func() {
		c0 := time.Now()
		err = pn.Run()
		c.converge += time.Since(c0)
	})
	if err != nil {
		return nil, fmt.Errorf("cycle %d: converge after repair: %w", ev, err)
	}
	tv2 := time.Now()
	tr.do(ev, root, "verify", "Pipeline.Verify", reg, func() { c.rep2 = p.Verify(w.pols) })
	c.lat += time.Since(tv2)
	c.window = pn.Log.Len()
	tc := time.Now()
	tr.do(ev, root, "hbr", "Pipeline.CompactLog", reg, func() { c.evicted = p.CompactLog(0) })
	c.compact = time.Since(tc)
	tr.close(root)
	c.busy = time.Since(t0)
	c.after = pn.FIBSnapshot()
	c.ios, c.simEvents = pn.Log.TotalAppended()-ios0, pn.Sched.Processed-sim0
	return c, nil
}

// check verifies a cycle's outputs: the violation was reported, the roots
// hold the injected config change, r2 was rolled back, the re-verify is
// ok, and the FIBs are back to what they were before the edit.
func (c *cycle) check(ev uint64) error {
	if c.rep.OK() {
		return fmt.Errorf("cycle %d: lp-10 misconfiguration not reported", ev)
	}
	found := false
	for _, r := range c.diag.Roots {
		found = found || r.ID == c.edit.ID
	}
	if !found {
		return fmt.Errorf("cycle %d: roots %v miss the injected config change %d", ev, c.diag.Roots, c.edit.ID)
	}
	if !c.diag.RolledBack || c.diag.RollbackRouter != "r2" {
		return fmt.Errorf("cycle %d: no rollback on r2: %s", ev, c.diag)
	}
	if !c.rep2.OK() {
		return fmt.Errorf("cycle %d: re-verify after repair: %s", ev, c.rep2.Summary())
	}
	if !reflect.DeepEqual(c.after, c.before) {
		return fmt.Errorf("cycle %d: FIBs after repair differ from before the edit", ev)
	}
	return nil
}

func (w *paperRepair) step(tr *tracer, ev uint64, vals map[string]float64) (stepResult, error) {
	c, err := w.run(tr, ev)
	if err != nil {
		return stepResult{}, err
	}
	if err := c.check(ev); err != nil {
		return stepResult{}, err
	}
	vals["converge_ms"] += ms(c.converge)
	vals["detect_ms"] += ms(c.detect)
	vals["verify_ms"] += ms(c.lat - c.detect)
	vals["compact_ms"] += ms(c.compact)
	vals["window_ios"] += float64(c.window)
	vals["n.ios"] += float64(c.ios)
	vals["n.sim_events"] += float64(c.simEvents)
	vals["n.root_causes"] += float64(len(c.diag.Roots))
	vals["n.walks_executed"] += float64(c.rep.Walks + c.rep2.Walks)
	vals["n.walks_cached"] += float64(c.rep.Cached + c.rep2.Cached)
	vals["n.evicted"] += float64(c.evicted)
	return stepResult{lat: c.lat, busy: c.busy, parts: map[string]time.Duration{"verdict": c.verdict}}, nil
}

func (w *paperRepair) layerVals(p *phase) map[string]float64 {
	hits, misses := p.delta.f("infer.cache.hits"), p.delta.f("infer.cache.misses")
	executed, cached := p.vals["n.walks_executed"], p.vals["n.walks_cached"]
	return map[string]float64{
		"network.converge_ms":     p.perEvent("converge_ms"),
		"network.sim_events":      p.perEvent("n.sim_events"),
		"capture.ios_per_event":   p.perEvent("n.ios"),
		"verify.check_ms":         p.perEvent("verify_ms") / 2,
		"verify.walks_executed":   p.perEvent("n.walks_executed"),
		"verify.walks_cached":     p.perEvent("n.walks_cached"),
		"verify.cache_hit_ratio":  ratio(cached, executed),
		"eqclass.resigned":        p.perEventDelta("eqclass.resigned"),
		"repair.detect_repair_ms": p.perEvent("detect_ms"),
		"hbr.compact_ms":          p.perEvent("compact_ms"),
		"hbr.window_ios":          p.perEvent("window_ios"),
		"hbr.cache_hits":          p.perEventDelta("infer.cache.hits"),
		"hbr.cache_misses":        p.perEventDelta("infer.cache.misses"),
		"hbr.cache_hit_ratio":     ratio(hits, misses),
		"hbg.root_causes":         p.perEvent("n.root_causes"),
	}
}

func runPaperRepair(cfg runConfig) (*outcome, error) {
	return runStepWorkload(cfg,
		func(seed int64) (stepper, error) { return buildPaperRepair(seed) },
		func(p *phase) map[string]float64 {
			return map[string]float64{
				"repaired_p50_ms": ms(median(p.lats)),
				"repaired_p90_ms": ms(quantile(p.lats, 0.90)),
				"verdict_p50_ms":  ms(median(p.parts["verdict"])),
			}
		})
}
