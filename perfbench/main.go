// Command perfbench times the paper's verification-and-repair loop end to
// end on four seeded workloads, checks every answer against an independent
// computation before it reports a number, and prints one JSON result line.
//
//	perfbench -workload paper-repair -seed 1 -seconds 8 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// run is split into an untraced and a traced half, and the result holds the
// per-layer metrics, each layer's self time, span coverage and the tracing
// overhead. NOTES.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// events, when positive, bounds every timed phase by event count
	// instead of wall time, so counts repeat exactly. Only the tests set
	// it.
	events int
	// spans is where a traced run writes its span log ("" = nowhere).
	spans string
}

// phaseLen is the wall-time budget of one timed phase: the whole run
// untraced, or each half of a traced run.
func (c runConfig) phaseLen() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int
	failed    int
	// e2e holds the end-to-end metrics of the untraced phase; layers the
	// per-layer metrics of the traced phase (traced runs only).
	e2e    map[string]metric
	layers map[string]metric
	// named are the workload's own headline figures under the names the
	// design notes use (repaired_p50_ms, verdict_p50_ms, ...); they go on
	// the record line.
	named map[string]float64
	// counts are the deterministic work counts of the untraced phase.
	counts map[string]int64
	spans  []span
}

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-repair":  runPaperRepair,
	"fattree-churn": runFatTreeChurn,
	"fattree-query": runFatTreeQuery,
	"log-ingest":    runLogIngest,
}

func main() {
	var cfg runConfig
	var traceFlag int
	var commit string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "measured wall seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "file the traced run writes its spans to")
	flag.StringVar(&commit, "commit", "unknown", "source revision recorded with the result")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, out.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				os.Exit(1)
			}
		}
	}
	record := map[string]interface{}{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": traceFlag, "commit": commit, "host": hostname(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "named": out.named, "counts": out.counts,
	}
	line, err := json.Marshal(map[string]interface{}{"record": record})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the record: %v\n", err)
		os.Exit(1)
	}
	// A metric that is not a finite number fails here, before anything
	// is printed.
	res, err := json.Marshal(map[string]interface{}{
		"correct": true, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	fmt.Println(string(res))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
