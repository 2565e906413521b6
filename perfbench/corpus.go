package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/versions"
)

// harnessParallel is the core.RunOptions.Parallel of the closed-loop
// workloads: the reference box's core count.
const harnessParallel = 2

// setups is how many times each run sets its workload up; setup_s is
// the median.
const setups = 5

// figure6 is the discrepancy list every full corpus iteration must find.
var figure6 = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func sizeName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// corpusInputs is the Figure-6 corpus (422 inputs), or its first 24
// inputs at tiny size.
func corpusInputs(tiny bool) ([]core.Input, error) {
	inputs, err := core.BuildCorpus()
	if err != nil {
		return nil, err
	}
	if tiny {
		inputs = inputs[:24]
	}
	return inputs, nil
}

// skewInputs is the base corpus (92 inputs), or its first 8 at tiny size.
func skewInputs(tiny bool) ([]core.Input, error) {
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		return nil, err
	}
	if tiny {
		inputs = inputs[:8]
	}
	return inputs, nil
}

// skewPairs is the five default writer->reader pairs, or the first two
// at tiny size.
func skewPairs(tiny bool) []versions.Pair {
	pairs := versions.DefaultPairs()
	if tiny {
		pairs = pairs[:2]
	}
	return pairs
}

// reportDigest hashes both projections of a corpus report: the
// machine-readable ReportJSON and the rendered text.
func reportDigest(rep *core.Report) string {
	data, err := json.Marshal(rep.JSON())
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return core.HashBytes(append(data, rep.Render()...))
}

func cellDigest(cell core.SkewCell) string {
	data, err := json.Marshal(cell)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return core.HashBytes(data)
}

// iterOpts are the knobs one closed-loop iteration runs under.
type iterOpts struct {
	parallel int
	metrics  *obs.Registry // harness case histograms (traced Parallel-1 pass)
	tr       *tracer
	iter     int
}

// iterFunc runs one checked iteration and returns the cases it ran.
type iterFunc func(o iterOpts) (int, error)

// corpusIter runs core.Run over inputs and checks the report.
func corpusIter(inputs []core.Input, ref corpusRef) iterFunc {
	return func(o iterOpts) (int, error) {
		root, end := o.tr.begin(o.iter, 0, "iteration")
		defer end()
		var res *core.RunResult
		var err error
		o.tr.timed(o.iter, root, "core.Run", func() {
			res, err = core.Run(inputs, core.RunOptions{Parallel: o.parallel, Metrics: o.metrics})
		})
		if err != nil {
			return 0, fmt.Errorf("core.Run: %w", err)
		}
		var digest string
		o.tr.timed(o.iter, root, "core.report", func() { digest = reportDigest(res.Report) })
		if digest != ref.Report {
			return 0, &checkError{"corpus.report_sha256", fmt.Sprintf("got %s, want %s", digest, ref.Report)}
		}
		if known := res.Report.DistinctKnown(); !slices.Equal(known, ref.Known) {
			return 0, &checkError{"corpus.figure6", fmt.Sprintf("found %v, want %v", known, ref.Known)}
		}
		return len(res.Cases), nil
	}
}

// skewIter runs core.RunSkewMatrix and checks every pair cell.
func skewIter(inputs []core.Input, pairs []versions.Pair, ref map[string]string) iterFunc {
	return func(o iterOpts) (int, error) {
		root, end := o.tr.begin(o.iter, 0, "iteration")
		defer end()
		var m *core.SkewMatrix
		var err error
		o.tr.timed(o.iter, root, "core.RunSkewMatrix", func() {
			m, err = core.RunSkewMatrix(inputs, pairs, core.RunOptions{Parallel: o.parallel, Metrics: o.metrics})
		})
		if err != nil {
			return 0, fmt.Errorf("core.RunSkewMatrix: %w", err)
		}
		var bad error
		o.tr.timed(o.iter, root, "core.report", func() {
			_ = m.Render()
			for _, cell := range m.Cells {
				pair := cell.Pair.String()
				if got := cellDigest(cell); got != ref[pair] && bad == nil {
					bad = &checkError{"skew.cell " + pair, fmt.Sprintf("got %s, want %s", got, ref[pair])}
				}
			}
		})
		if bad != nil {
			return 0, bad
		}
		return len(inputs) * len(core.Plans()) * len(core.Formats()) * len(pairs), nil
	}
}

// timeSetups runs setup n times and returns the median wall time in s.
// teardown, when non-nil, undoes each set-up but the last, untimed.
func timeSetups(n int, setup func() error, teardown func()) (float64, error) {
	var walls []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		watch := startWatch()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, watch.seconds())
	}
	return median(walls), nil
}

// loop is the record of a closed loop: one entry per successful
// iteration.
type loop struct {
	walls []float64 // s
	cases []int
}

// closedLoop runs iterations back to back (one client) until seconds
// have passed, at least once and at most max times (max <= 0: no cap).
// Tracing alternates with untraced iterations when tr is set, so the
// tracing overhead is measured under the same conditions.
func closedLoop(seconds float64, max int, t *tally, tr *tracer, run iterFunc) (traced, plain loop) {
	start := time.Now()
	var last float64 // the previous iteration's wall time
	for i := 0; max <= 0 || i < max; i++ {
		// Start another iteration only if it should end less than half an
		// iteration past the deadline.
		if i > 0 && time.Since(start).Seconds()+last/2 >= seconds && (tr == nil || i >= 2) {
			break
		}
		o := iterOpts{parallel: harnessParallel, iter: i}
		into := &plain
		if tr != nil && i%2 == 0 {
			o.tr, into = tr, &traced
		}
		t.attempt(1)
		runtime.GC() // every iteration starts from a collected heap
		watch := startWatch()
		n, err := run(o)
		wall := watch.seconds()
		last = wall
		if err != nil {
			t.fail(err)
			continue
		}
		into.walls = append(into.walls, wall)
		into.cases = append(into.cases, n)
	}
	return traced, plain
}

// untracedRun is the end-to-end measurement of a closed-loop workload:
// the loop for cfg.seconds (at most max iterations), where a job is one
// iteration. No tail percentile: a run has 3 to 40 iterations, too few
// for any percentile above the median to have 10 samples beyond it.
func untracedRun(cfg config, max int, t *tally, setupS float64, iter iterFunc) map[string]float64 {
	_, l := closedLoop(cfg.seconds, max, t, nil, iter)
	rates := make([]float64, len(l.walls))
	for i, w := range l.walls {
		rates[i] = float64(l.cases[i]) / w
	}
	m := map[string]float64{
		"setup_s":     setupS,
		"cases_per_s": median(rates),
		"job_p50_ms":  median(l.walls) * 1000,
		"peak_rss_mb": peakRSSMB(),
	}
	if total := sum(l.walls); total > 0 {
		m["max_rate_jobs_s"] = float64(len(l.walls)) / total
	}
	return m
}

func runCorpus(cfg config, r *refs, tr *tracer, t *tally) (map[string]float64, error) {
	ref := r.Corpus[sizeName(cfg.tiny)]
	var inputs []core.Input
	setupS, err := timeSetups(setups, func() error {
		in, err := corpusInputs(cfg.tiny)
		if err != nil {
			return err
		}
		warm, err := corpusInputs(true)
		if err != nil {
			return err
		}
		if _, err := corpusIter(warm, r.Corpus["tiny"])(iterOpts{parallel: harnessParallel}); err != nil {
			return err
		}
		inputs = in
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	iter := corpusIter(inputs, ref)
	if tr == nil {
		return untracedRun(cfg, 0, t, setupS, iter), nil
	}
	return closedLayers(cfg, t, tr, iter, "crosstest_case_duration_ms", []batch{{probes: corpusProbes(inputs)}})
}

func runSkew(cfg config, r *refs, tr *tracer, t *tally) (map[string]float64, error) {
	ref := r.Skew[sizeName(cfg.tiny)]
	// The seed orders the pairs; each cell runs on its own deployment,
	// so every cell digest is order-independent.
	pairs := skewPairs(cfg.tiny)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x736b6577))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var inputs []core.Input
	setupS, err := timeSetups(setups, func() error {
		in, err := skewInputs(cfg.tiny)
		if err != nil {
			return err
		}
		warm, err := skewInputs(true)
		if err != nil {
			return err
		}
		if _, err := skewIter(warm, skewPairs(true), r.Skew["tiny"])(iterOpts{parallel: harnessParallel}); err != nil {
			return err
		}
		inputs = in
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	iter := skewIter(inputs, pairs, ref)
	if tr == nil {
		return untracedRun(cfg, 0, t, setupS, iter), nil
	}
	var batches []batch
	for i := range pairs {
		batches = append(batches, batch{probes: corpusProbes(inputs), pair: &pairs[i]})
	}
	return closedLayers(cfg, t, tr, iter, "crosstest_case_duration_ms", batches)
}

// closedLayers is the traced run of a core workload: alternating traced
// and untraced iterations (tracing overhead, report time), one
// Parallel-1 iteration with the harness metrics registry (oracle time,
// allocations, parallel speed-up), and a layer replay of the
// iteration's cases.
func closedLayers(cfg config, t *tally, tr *tracer, iter iterFunc, caseHist string, batches []batch) (map[string]float64, error) {
	traced, plain := closedLoop(cfg.seconds/2, 0, t, tr, iter)
	if len(traced.walls) == 0 || len(plain.walls) == 0 {
		return nil, fmt.Errorf("no successful iteration to measure")
	}
	m := map[string]float64{
		"trace.overhead_ratio": median(traced.walls) / median(plain.walls),
		"core.report_ms":       median(tr.durations("core.report")) / 1000,
	}

	reg := obs.NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.attempt(1)
	watch := startWatch()
	cases, err := iter(iterOpts{parallel: 1, metrics: reg, tr: tr, iter: -1})
	wall := time.Since(watch.start) // as the case histogram sees it, steal included
	unstolen := watch.seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.fail(err)
		return nil, err
	}
	var caseMs float64
	for _, family := range []string{"ss", "sh", "hs"} {
		caseMs += reg.Histogram(caseHist, nil, "family", family).Sum()
	}
	m["core.oracle_ms"] = ms(wall) - caseMs
	m["core.allocs_per_case"] = float64(after.Mallocs-before.Mallocs) / float64(cases)
	m["core.parallel_speedup_x"] = unstolen / median(plain.walls)

	ls := &layerStats{}
	for i, b := range batches {
		if err := replay(b, replayEvery(cfg), tr, -2-i, ls); err != nil {
			return nil, err
		}
	}
	for k, v := range ls.metrics() {
		m[k] = v
	}
	return m, nil
}

// replayEvery is the sampling stride of the per-case micro-measurements.
func replayEvery(cfg config) int {
	if cfg.tiny {
		return 1
	}
	return 4
}
