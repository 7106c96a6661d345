package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// layerMetrics is every per-layer metric a traced run reports, in order,
// with its unit. "count/event" is a count divided by the workload's events
// (cycles, flaps, queries or log lines); a layer a workload does not
// exercise reads zero.
var layerMetrics = []struct{ name, unit string }{
	{"network.converge_ms", "ms"},
	{"network.sim_events", "count/event"},
	{"capture.ios_per_event", "count/event"},
	{"verify.check_ms", "ms"},
	{"verify.walks_executed", "count/event"},
	{"verify.walks_cached", "count/event"},
	{"verify.cache_hit_ratio", "ratio"},
	{"eqclass.resigned", "count/event"},
	{"dist.relabel_round_ms", "ms"},
	{"localck.certify_round_ms", "ms"},
	{"dist.frames_per_event", "count/event"},
	{"dist.bytes_per_event", "B/event"},
	{"localck.certified", "count/event"},
	{"localck.escalated", "count/event"},
	{"localck.certified_ratio", "ratio"},
	{"dist.errors", "count"},
	{"repair.detect_repair_ms", "ms"},
	{"hbr.compact_ms", "ms"},
	{"hbr.window_ios", "count"},
	{"hbr.cache_hits", "count/event"},
	{"hbr.cache_misses", "count/event"},
	{"hbr.cache_hit_ratio", "ratio"},
	{"hbg.root_causes", "count/event"},
	{"serve.answer_us_p50", "us"},
	{"serve.answer_us_p99", "us"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.coalesced", "count/event"},
	{"serve.executed", "count/event"},
	{"serve.rejected", "count/event"},
	{"gen.late_p99_us", "us"},
	{"ciscolog.parse_lines", "count/event"},
	{"ciscolog.parse_errors", "count"},
	{"ciscolog.parse_ms", "ms/kline"},
	{"stream.compactions", "count/event"},
	{"stream.compact_evicted", "count/event"},
	{"stream.window_events", "count"},
	{"event.self_ms", "ms"},
	{"network.self_ms", "ms"},
	{"verify.self_ms", "ms"},
	{"dist.self_ms", "ms"},
	{"localck.self_ms", "ms"},
	{"repair.self_ms", "ms"},
	{"hbr.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"stream.self_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// selfLayers are the span layers whose self time is reported as
// <layer>.self_ms per event.
var selfLayers = []string{"event", "network", "verify", "dist", "localck", "repair", "hbr", "serve", "stream"}

// layerSet assembles the per-layer metric map from the values a workload
// measured plus its span summary; untouched metrics read zero.
func layerSet(vals map[string]float64, spans []span, events int, tracedLat, plainLat time.Duration) map[string]metric {
	sum := summarize(spans)
	if events > 0 {
		for _, l := range selfLayers {
			vals[l+".self_ms"] = ms(sum.self[l]) / float64(events)
		}
	}
	if sum.rootTotal > 0 {
		vals["trace.coverage"] = float64(sum.covered) / float64(sum.rootTotal)
	}
	vals["trace.overhead_ms"] = ms(tracedLat - plainLat)
	if plainLat > 0 {
		vals["trace.overhead_pct"] = 100 * float64(tracedLat-plainLat) / float64(plainLat)
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// e2eSet assembles the end-to-end metric map.
func e2eSet(setup time.Duration, eventsPerS float64, p50, p90 time.Duration, heapMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {Value: setup.Seconds(), Unit: "s"},
		"events_per_s":   {Value: eventsPerS, Unit: "1/s"},
		"latency_p50_ms": {Value: ms(p50), Unit: "ms"},
		"latency_p90_ms": {Value: ms(p90), Unit: "ms"},
		"heap_mb":        {Value: heapMB, Unit: "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// regDelta is how far each registry instrument moved between two
// snapshots.
type regDelta map[string]int64

func deltaOf(before, after map[string]int64) regDelta {
	d := regDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func (d regDelta) f(name string) float64 { return float64(d[name]) }
