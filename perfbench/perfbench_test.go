package main

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbverify/internal/fib"
	"hbverify/internal/verify"
)

// TestCountsRepeat runs each workload twice on a short, event-bounded run
// and requires every work count to repeat exactly.
func TestCountsRepeat(t *testing.T) {
	cases := []struct {
		name   string
		run    workloadFunc
		events int
		// must lists counts that have to be present and nonzero.
		must []string
	}{
		{"paper-repair", runPaperRepair, 6,
			[]string{"ios", "sim_events", "walks_executed", "root_causes"}},
		{"fattree-churn", runFatTreeChurn, 4,
			[]string{"ios", "sim_events", "walks_executed", "frames", "bytes", "certified"}},
		{"fattree-query", runFatTreeQuery, 2000, []string{"answered"}},
		{"log-ingest", runLogIngest, 600, []string{"compactions", "evicted", "window"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := runConfig{workload: c.name, seed: 7, seconds: 1, events: c.events}
			a, err := c.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Fatalf("counts differ between identical runs:\n%v\n%v", a.counts, b.counts)
			}
			for _, k := range c.must {
				if a.counts[k] == 0 {
					t.Errorf("count %s is zero: %v", k, a.counts)
				}
			}
			if a.failed != 0 || a.attempted == 0 {
				t.Errorf("attempted %d, failed %d", a.attempted, a.failed)
			}
			for _, name := range []string{"setup_s", "events_per_s", "latency_p50_ms", "latency_p90_ms", "heap_mb"} {
				m, ok := a.e2e[name]
				if !ok || m.Unit == "" {
					t.Errorf("end-to-end metric %s missing", name)
				}
			}
		})
	}
}

// TestBenchmarkDefinitionMatches requires BENCHMARK.json to list exactly
// the metrics a run prints, with the same units and in the same order.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var layers []def
	for _, m := range layerMetrics {
		layers = append(layers, def{m.name, m.unit})
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics:\n%v\n%v", b.PerLayer, layers)
	}
	e2e := e2eSet(time.Second, 1, time.Millisecond, time.Millisecond, 1)
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, a run prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, d := range b.EndToEnd {
		if m, ok := e2e[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s (%s): a run prints %+v", d.Name, d.Unit, m)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric checks a traced run's metric set.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	out, err := runPaperRepair(runConfig{seed: 3, seconds: 1, events: 3, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.layers) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(out.layers), len(layerMetrics))
	}
	for _, name := range []string{"repair.detect_repair_ms", "hbr.compact_ms", "repair.self_ms", "trace.coverage"} {
		if out.layers[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.layers[name].Value)
		}
	}
	if cov := out.layers["trace.coverage"].Value; cov > 1 {
		t.Errorf("coverage %v > 1", cov)
	}
	for _, s := range out.spans {
		if s.EndNS < s.StartNS || (s.Parent == 0) != (s.Layer == "event") {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestPaperChecksFire feeds each of a cycle's checks a wrong answer.
func TestPaperChecksFire(t *testing.T) {
	w, err := buildPaperRepair(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c, err := w.run(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(1); err != nil {
		t.Fatalf("honest cycle rejected: %v", err)
	}
	fewerFIBs := map[string]map[netip.Prefix]fib.Entry{}
	for r, tbl := range c.after {
		if r != "r2" {
			fewerFIBs[r] = tbl
		}
	}
	cases := map[string]func(c *cycle){
		"not reported": func(c *cycle) { c.rep = verify.Report{} },
		"miss the injected": func(c *cycle) {
			d := *c.diag
			d.Roots = nil
			c.diag = &d
		},
		"no rollback": func(c *cycle) {
			d := *c.diag
			d.RolledBack = false
			c.diag = &d
		},
		"re-verify":          func(c *cycle) { c.rep2 = c.rep },
		"differ from before": func(c *cycle) { c.after = fewerFIBs },
	}
	for want, tamper := range cases {
		bad := *c
		tamper(&bad)
		if err := bad.check(1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: check returned %v", want, err)
		}
	}
}

// isolate queues the four downs that cut p0e0 off, then the ups.
func isolate(w *fatTreeChurn) {
	w.plan.queue = nil
	for a := 0; a < fatTreeK/2; a++ {
		w.plan.queue = append(w.plan.queue, flap{a: "p0e0", b: fmt.Sprintf("p0a%d", a), isolates: a == fatTreeK/2-1})
	}
	for a := 0; a < fatTreeK/2; a++ {
		w.plan.queue = append(w.plan.queue, flap{a: "p0e0", b: fmt.Sprintf("p0a%d", a), up: true})
	}
}

// TestChurnChecksFire runs an honest isolation episode, requires exactly
// the isolating flap to be a violation, and feeds each of that flap's
// checks a wrong answer.
func TestChurnChecksFire(t *testing.T) {
	w, err := buildFatTreeChurn(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	isolate(w)
	vals := map[string]float64{}
	for i := 0; i < fatTreeK/2-1; i++ {
		if _, err := w.step(nil, uint64(i), vals); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.run(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(9); err != nil || r.rep.OK() || r.st.Report.OK() {
		t.Fatalf("isolating flap: check %v, central %s, local %s", err, r.rep.Summary(), r.st.Report.Summary())
	}
	for i := 0; i < fatTreeK/2; i++ {
		if _, err := w.step(nil, uint64(10+i), vals); err != nil {
			t.Fatal(err)
		}
	}
	if vals["n.violating_flaps"] != 0 {
		t.Fatalf("%v violating flaps besides the isolating one", vals["n.violating_flaps"])
	}
	cases := map[string]func(r *flapRun){
		"central verdict": func(r *flapRun) { r.rep.Violations = r.rep.Violations[1:] },
		"local-check verdict": func(r *flapRun) {
			r.st.Report.Violations = r.st.Report.Violations[1:]
		},
		"isolating=false":    func(r *flapRun) { r.f.isolates = false },
		"fleet walks failed": func(r *flapRun) { r.st.Errors = 1 },
	}
	for want, tamper := range cases {
		bad := *r
		tamper(&bad)
		if err := bad.check(9); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: check returned %v", want, err)
		}
	}
}

// TestQueryChecksFire flips an answer, then the reference the uncached
// engine is compared with.
func TestQueryChecksFire(t *testing.T) {
	w, err := buildFatTreeQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	a, err := w.ask(0)
	if err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	a.OK = !a.OK
	if err := w.check(0, a); err == nil {
		t.Fatal("flipped answer not caught")
	}
	if err := w.agreeUncached(); err != nil {
		t.Fatalf("uncached engine disagrees: %v", err)
	}
	w.want[0].ok = !w.want[0].ok
	if err := w.agreeUncached(); err == nil {
		t.Fatal("uncached engine check did not catch the flipped reference")
	}
}

// TestIngestChecksFire feeds each of an ingest's checks a wrong answer.
func TestIngestChecksFire(t *testing.T) {
	run, err := ingest(fleetFor(1, 50), nil, false)
	if err != nil {
		t.Fatalf("honest ingest failed: %v", err)
	}
	cases := map[string]func(r *ingestRun){
		"fleet emitted": func(r *ingestRun) { r.events-- },
		"parse errors":  func(r *ingestRun) { r.delta = regDelta{"ciscolog.parse.errors": 1} },
		"lines read": func(r *ingestRun) {
			// One of r1's events attributed to r0: totals still agree.
			r.appended = append([]int(nil), r.appended...)
			r.appended[0]++
			r.appended[1]--
		},
		"no fleet router": func(r *ingestRun) { r.foreign = 1 },
	}
	for want, tamper := range cases {
		bad := *run
		tamper(&bad)
		if err := bad.check(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: check returned %v", want, err)
		}
	}
}

// TestSummarize checks self time and coverage with overlapping children.
func TestSummarize(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Layer: "event", StartNS: 0, EndNS: 10 * ms},
		{ID: 2, Parent: 1, Layer: "stream", StartNS: 1 * ms, EndNS: 5 * ms},
		{ID: 3, Parent: 1, Layer: "stream", StartNS: 3 * ms, EndNS: 7 * ms},
	}
	s := summarize(spans)
	if s.self["event"] != 4*time.Millisecond || s.self["stream"] != 8*time.Millisecond {
		t.Fatalf("self = %v", s.self)
	}
	if s.rootTotal != 10*time.Millisecond || s.covered != 6*time.Millisecond {
		t.Fatalf("root %v covered %v", s.rootTotal, s.covered)
	}
}
