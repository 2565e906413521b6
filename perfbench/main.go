// Command perfbench is the repository's benchmark. Four workloads drive
// the shipped code through its public entry points, check every output
// against reference digests generated at the commit that defined the
// benchmark, and print one JSON result line:
//
//	corpus   closed loop: core.Run over the Figure-6 corpus
//	skew     closed loop: core.RunSkewMatrix over the base corpus
//	crossd   open loop: Poisson job arrivals against an in-process crossd
//	cluster  closed loop: fuzz campaigns through a 2-node crossd cluster
//
// BENCHMARK.json gates corpus, skew and cluster; crossd's latencies
// spread too far on a shared host to gate (README.md has the numbers).
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) records a span around each timed public call and
// reports the per-layer metrics. README.md lists every metric, the
// layer it belongs to, and the end-to-end metric it should move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload corpus -seed 1 -seconds 30 -trace 0
//	perfbench -gen-refs perfbench/refs.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (a self-test checks they do).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cases_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"max_rate_jobs_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"sqlparse.parse_us", "us", "lower"},
	{"hivesim.ddl_us", "us", "lower"},
	{"serde.encode_us", "us", "lower"},
	{"serde.decode_us", "us", "lower"},
	{"serde.file_bytes", "B", "lower"},
	{"hdfssim.list_us", "us", "lower"},
	{"hdfssim.files", "count", "lower"},
	{"hdfssim.writes_per_case", "count", "lower"},
	{"hdfssim.reads_per_case", "count", "lower"},
	{"core.write_us", "us", "lower"},
	{"core.read_us", "us", "lower"},
	{"engine.self_us", "us", "lower"},
	{"core.oracle_ms", "ms", "lower"},
	{"core.report_ms", "ms", "lower"},
	{"core.allocs_per_case", "count", "lower"},
	{"core.parallel_speedup_x", "x", "higher"},
	{"fuzzgen.gen_us", "us", "lower"},
	{"fuzzgen.campaign_ms", "ms", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.result_ms", "ms", "lower"},
	{"serve.result_kb", "KiB", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.reject_ratio", "ratio", "lower"},
	{"serve.gen_late_ms", "ms", "lower"},
	{"serve.stage_agreement", "ratio", "higher"},
	{"serve.tracer_run_ms", "ms", "lower"},
	{"cluster.split_us", "us", "lower"},
	{"cluster.merge_ms", "ms", "lower"},
	{"cluster.subjob_run_ms", "ms", "lower"},
	{"cluster.fanout_overhead_ms", "ms", "lower"},
	{"cluster.straggler_ratio", "ratio", "lower"},
	{"cluster.steals", "count", "lower"},
	{"cluster.peer_hits", "count", "higher"},
	{"cluster.speedup_x", "x", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to self-test size (checked against the
	// tiny reference digests).
	tiny bool
}

// checkError is a failed output check; its name identifies the check.
type checkError struct{ check, detail string }

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

// tally counts operations attempted and failed, and the failed checks.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	checks    []string
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail counts a failed operation (error, 429, timeout or failed check);
// failed checks are also named so the run can exit non-zero.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	var ce *checkError
	if errors.As(err, &ce) {
		t.checks = append(t.checks, ce.Error())
	}
}

// refuse counts a failed operation that is not an output check: a 429
// or a timeout.
func (t *tally) refuse() {
	t.mu.Lock()
	t.failed++
	t.mu.Unlock()
}

type workloadFunc func(cfg config, r *refs, tr *tracer, t *tally) (map[string]float64, error)

var workloads = map[string]workloadFunc{
	"corpus":  runCorpus,
	"skew":    runSkew,
	"crossd":  runCrossd,
	"cluster": runCluster,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: corpus, skew, crossd or cluster")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (inputs, arrival schedule and job mix derive from it)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement time per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	genRefs := flag.String("gen-refs", "", "regenerate the reference digests into this file and exit")
	flag.Parse()
	cfg.trace = *traced == 1

	if *genRefs != "" {
		if err := generateRefs(*genRefs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || (*traced != 0 && *traced != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload corpus|skew|crossd|cluster -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t := &tally{}
	stolen, start := stolenSeconds(), time.Now()
	values, err := run(cfg, r, tr, t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: host CPU steal %.1f%% of %d CPUs over %.1f s\n",
		100*(stolenSeconds()-stolen)/float64(runtime.NumCPU())/time.Since(start).Seconds(), runtime.NumCPU(), time.Since(start).Seconds())
	if cfg.trace {
		path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	res := buildResult(cfg, values, t)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, c := range t.checks {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", c)
		}
		os.Exit(1)
	}
}

// buildResult keeps exactly the metrics of the run's kind; a per-layer
// metric the workload does not exercise reads 0.
func buildResult(cfg config, values map[string]float64, t *tally) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(t.checks) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

// sortedKeys is a helper for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
