// Command perfbench is sdnavail's benchmark: it drives the availd service
// and the engines behind it with one workload per run and prints every
// metric with its unit, then one JSON result line.
//
//	perfbench --workload whatif_mc --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	whatif_mc        /api/v1/mc what-ifs, 2 closed-loop clients
//	whatif_analytic  /api/v1/analytic, 90% hot keys, 1 closed-loop client
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it serves the workload once untraced and
// once traced, replays the work through the layers below the server, and
// reports per-layer metrics and the tracing overhead; whatif_mc's traced
// run also sends its requests through a coordinator and two shard workers
// to measure the shard layer, and makes rare-event estimates to measure
// the mc.rare layer. The exit code is 0
// only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload; "op" is the workload's unit of work (an MC request or an
// analytic request).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"net.transport_ms", "ms"},
	{"net.resp_bytes", "B"},
	{"server.handler_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.memo_hit_ratio", "frac"},
	{"server.shed_frac", "frac"},
	{"sweep.run_ms", "ms"},
	{"sweep.self_ms", "ms"},
	{"mc.session_build_us", "us"},
	{"mc.rep_us.small", "us"},
	{"mc.rep_us.medium", "us"},
	{"mc.rep_us.large", "us"},
	{"mc.events_per_rep", "count"},
	{"mc.ns_per_event", "ns"},
	{"mc.allocs_per_rep", "count"},
	{"mc.bytes_per_rep", "B"},
	{"mc.rare.rep_us", "us"},
	{"mc.rare.reps_to_target", "count"},
	{"mc.rare.ess_frac", "frac"},
	{"mc.rare.splits_per_rep", "count"},
	{"mc.rare.kills_per_split", "count"},
	{"analytic.eval_us", "us"},
	{"shard.calls_per_req", "count"},
	{"shard.worker_ms", "ms"},
	{"shard.resp_bytes", "B"},
	{"shard.coord_self_ms", "ms"},
	{"shard.reassigns", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mb", "MB"},
	{"proc.cpu_ms_per_req", "ms"},
	{"trace.overhead_frac", "frac"},
}

// runCfg is one run's settings.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// spanDir receives the traced run's spans.
	spanDir string
}

// outcome is what a workload reports. fail may be called concurrently.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	// problems holds the first few failure reasons.
	problems []string
	metrics  map[string]float64
	// notes are extra human-readable result lines.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"whatif_mc":       runMC,
	"whatif_analytic": runAnalytic,
}

// metric is one JSON metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (whatif_mc, whatif_analytic)")
		seed    = flag.Int64("seed", 1, "workload seed: the request list is a function of it")
		seconds = flag.Float64("seconds", 10, "how long the run serves its request list")
		trace   = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		spanDir = flag.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: *spanDir}
	if cfg.trace {
		if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
			return err
		}
	}

	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  nproc %d  GOMAXPROCS %d  %s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := wl(cfg)
	if err != nil {
		return err
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	res.Correct = out.failed == 0 && out.attempted > 0
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-24s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %-24s %d of %d\n", "failed", out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Println("  FAIL: " + p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 9

// timeSetup runs setup several times, keeping the last result and
// closing the others, and returns the median set-up time in seconds.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var secs []float64
	var kept T
	for i := 0; i < setups; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return kept, median(secs), nil
}

// endToEndMetrics fills the untraced metrics.
func endToEndMetrics(o *outcome, setupS, p50, p90, opsPerS float64) {
	o.metrics = map[string]float64{
		"setup_s":     setupS,
		"p50_ms":      p50,
		"p90_ms":      p90,
		"ops_per_s":   opsPerS,
		"peak_rss_mb": peakRSSMB(),
	}
}

// saveSpans links the recorder's spans and writes them for the run.
func saveSpans(cfg runCfg, workload string, rec *recorder, parentOf map[string]string) ([]span, error) {
	spans := rec.snapshot()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Req < spans[b].Req })
	link(spans, parentOf)
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	return spans, writeSpans(path, spans)
}
