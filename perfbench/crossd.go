package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The crossd workload is an open loop: independent clients submit jobs
// on a Poisson schedule whether or not earlier jobs have finished.
const (
	nominalRate    = 24.0  // jobs/s
	latencyLimitMs = 250.0 // the ladder's p99 limit
	ladderBase     = 24.0  // jobs/s at rung 0
	ladderStep     = 1.10  // rung spacing: 10%
	ladderMin      = -4    // lowest rung: 24 × 1.1^-4 ≈ 16 jobs/s
	ladderMax      = 20    // highest rung: 24 × 1.1^20 ≈ 161 jobs/s
	// maxRise is the queue growth over one ladder step, in jobs, beyond
	// which the backlog counts as growing.
	maxRise = 2.0
)

// Job mix of every step, in arrivals per hundred.
const (
	coldPct     = 65
	resubmitPct = 30
)

// Resubmissions repeat a cold job that was due between these bounds
// earlier, so its result is normally complete and still among the
// newest 128 cache entries.
const (
	resubmitMinAge = 500 * time.Millisecond
	resubmitMaxAge = 4 * time.Second
)

const (
	kindCold      = "cold"
	kindResubmit  = "resubmit"
	kindPartition = "partition"
)

// arrival is one scheduled submission.
type arrival struct {
	At   time.Duration `json:"at_ns"`
	Kind string        `json:"kind"`
	Seed uint64        `json:"seed"`
	// Of is, for a resubmission, the index of the cold arrival repeated.
	Of int `json:"of"`
}

func (a arrival) spec() serve.JobSpec {
	if a.Kind == kindPartition {
		return partSpec(a.Seed)
	}
	return fuzzSpec(a.Seed, fuzzN)
}

// cursor hands out a pool's seeds in order from a starting offset,
// skipping the first reserved entries and wrapping at the pool's end.
type cursor struct{ base, reserved, size, next int }

// crossdCursors start at the pools' first unreserved entries, so every
// run serves the same jobs and the seed decides only when each kind
// arrives: the run-to-run spread then comes from the arrival process,
// not from which campaigns happened to be drawn.
func crossdCursors() (fuzz, part *cursor) {
	return &cursor{base: fuzzSeedBase, reserved: crossdWarm, size: fuzzPool},
		&cursor{base: partSeedBase, size: partPool}
}

func (c *cursor) take() uint64 {
	v := c.base + c.reserved + c.next%(c.size-c.reserved)
	c.next++
	return uint64(v)
}

// schedule draws one step: n arrivals of a Poisson process at rate
// jobs/s conditioned on its count (uniform times over n/rate seconds),
// with an exact 65/30/5 cold/resubmit/partition mix. It is a pure
// function of (seed, step) and the cursors' positions.
func schedule(seed uint64, step int64, rate float64, n int, fuzz, part *cursor) []arrival {
	rng := rand.New(rand.NewPCG(seed, uint64(step)^0x63726f737364))
	window := float64(n) / rate
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * window
	}
	sort.Float64s(times)
	kinds := make([]string, n)
	nCold := (n*coldPct + 50) / 100
	nRe := (n*resubmitPct + 50) / 100
	for i := range kinds {
		switch {
		case i < nCold:
			kinds[i] = kindCold
		case i < nCold+nRe:
			kinds[i] = kindResubmit
		default:
			kinds[i] = kindPartition
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	out := make([]arrival, n)
	for i := range out {
		a := arrival{At: time.Duration(times[i] * float64(time.Second)), Kind: kinds[i], Of: -1}
		if a.Kind == kindResubmit {
			var candidates []int
			for j := i - 1; j >= 0 && a.At-out[j].At <= resubmitMaxAge; j-- {
				if out[j].Kind == kindCold && a.At-out[j].At >= resubmitMinAge {
					candidates = append(candidates, j)
				}
			}
			if len(candidates) == 0 {
				a.Kind = kindCold // nothing old enough to repeat yet
			} else {
				a.Of = candidates[rng.IntN(len(candidates))]
				a.Seed = out[a.Of].Seed
			}
		}
		switch a.Kind {
		case kindCold:
			a.Seed = fuzz.take()
		case kindPartition:
			a.Seed = part.take()
		}
		out[i] = a
	}
	return out
}

// stepResult is one executed schedule.
type stepResult struct {
	arrivals []arrival
	outs     []outcome
	window   time.Duration
	// rise is the fitted growth of the queue depth over the window.
	rise float64
	// tableCases sums the table cases of the cold fuzz jobs served.
	tableCases int
}

type crossdRun struct {
	cfg        config
	refs       *refs
	node       *node
	c          *client
	t          *tally
	fuzz, part *cursor
}

// step plays a schedule against the server and checks every result.
// counted steps count 429s as failed operations; ladder probes only
// use them to reject the rung.
func (w *crossdRun) step(arrivals []arrival, tr *tracer, iterBase int, counted bool) stepResult {
	res := stepResult{arrivals: arrivals, outs: make([]outcome, len(arrivals))}
	if n := len(arrivals); n > 0 {
		res.window = arrivals[n-1].At
	}
	runtime.GC() // every step starts from a collected heap
	start := time.Now().Add(5 * time.Millisecond)
	depthStop := make(chan struct{})
	depthDone := make(chan []float64)
	go sampleDepth(w.node.metrics, start, res.window, depthStop, depthDone)
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			res.outs[i] = w.c.runJob(a.spec(), due, tr, iterBase+i)
		}(i, a, due)
	}
	wg.Wait()
	close(depthStop)
	res.rise = fitRise(<-depthDone, res.window)

	w.t.attempt(len(arrivals))
	for i, o := range res.outs {
		a := arrivals[i]
		switch {
		case o.code == http.StatusTooManyRequests:
			if counted {
				w.t.refuse()
			}
			continue
		case o.err != nil:
			w.t.fail(o.err)
			continue
		}
		jr, err := w.refs.checkJob(a.spec(), o.body, "")
		if err == nil && a.Kind == kindResubmit {
			if orig := res.outs[a.Of]; orig.body != nil && !bytes.Equal(orig.body, o.body) {
				err = &checkError{"crossd.resubmit_bytes", fmt.Sprintf("%s: resubmitted result differs from the cold result", jobLabel(a.spec()))}
			}
		}
		if err != nil {
			w.t.fail(err)
			res.outs[i].err = err
			continue
		}
		if a.Kind == kindCold && jr.Fuzz != nil {
			res.tableCases += jr.Fuzz.TableCases
		}
	}
	return res
}

// sampleDepth samples the server's queue-depth gauge every 20 ms over
// the step's arrival window.
func sampleDepth(m *obs.Registry, start time.Time, window time.Duration, stop <-chan struct{}, out chan<- []float64) {
	var samples []float64 // (offset s, depth) pairs, flattened
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- samples
			return
		case now := <-tick.C:
			off := now.Sub(start)
			if off >= 0 && off <= window {
				samples = append(samples, off.Seconds(), m.Gauge(obs.MetricQueueDepth).Value())
			}
		}
	}
}

// fitRise is the least-squares slope of depth over time, times the window.
func fitRise(samples []float64, window time.Duration) float64 {
	n := float64(len(samples) / 2)
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i+1 < len(samples); i += 2 {
		x, y := samples[i], samples[i+1]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den * window.Seconds()
}

func (r stepResult) latencies() []float64 {
	out := make([]float64, len(r.outs))
	for i, o := range r.outs {
		out[i] = o.latencyMs()
	}
	return out
}

// span is the time from the first due time to the last completion.
func (r stepResult) span() time.Duration {
	var last time.Time
	for _, o := range r.outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	if len(r.outs) == 0 || last.IsZero() {
		return 0
	}
	return last.Sub(r.outs[0].due)
}

// goodput is the completed jobs per second over the step.
func (r stepResult) goodput() float64 {
	ok := 0
	for _, o := range r.outs {
		if o.err == nil && o.code != http.StatusTooManyRequests {
			ok++
		}
	}
	if s := r.span().Seconds(); s > 0 {
		return float64(ok) / s
	}
	return 0
}

// limitQuantile is the latency percentile a step's limit applies to:
// p99, or for a step too short to have 10 samples beyond p99, the
// highest percentile that does (the median at least).
func (r stepResult) limitQuantile() float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(len(r.outs))))
}

// meetsLimit reports whether the step held the latency limit with no
// refusals, no errors and no growing backlog.
func (r stepResult) meetsLimit() bool {
	for _, o := range r.outs {
		if o.err != nil || o.code == http.StatusTooManyRequests {
			return false
		}
	}
	return quantile(r.latencies(), r.limitQuantile()) <= latencyLimitMs && r.rise <= maxRise
}

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// ladder bisects the fixed rung ladder for the highest rate that meets
// the limit and returns the goodput measured at that rung.
func (w *crossdRun) ladder(probe time.Duration) float64 {
	lo, hi := ladderMin-1, ladderMax+1
	good := map[int]float64{}
	for hi-lo > 1 {
		k := lo + (hi-lo)/2
		rate := rungRate(k)
		n := int(math.Round(rate * probe.Seconds()))
		res := w.step(schedule(w.cfg.seed, int64(1000+k), rate, n, w.fuzz, w.part), nil, 0, false)
		fmt.Fprintf(os.Stderr, "perfbench: crossd rung %.1f jobs/s: p%.0f %.0f ms, rise %.1f, ok=%v\n",
			rate, 100*res.limitQuantile(), quantile(res.latencies(), res.limitQuantile()), res.rise, res.meetsLimit())
		if res.meetsLimit() {
			lo, good[k] = k, res.goodput()
		} else {
			hi = k
		}
	}
	return good[lo]
}

// crossdSizes are the step sizes of one run.
func crossdSizes(cfg config) (nominal int, probe time.Duration) {
	if cfg.tiny {
		return 24, 500 * time.Millisecond
	}
	// 200 arrivals at least, so the p95 latency has 10 samples beyond it.
	nominal = int(math.Max(200, math.Round(nominalRate*0.6*cfg.seconds)))
	probe = time.Duration(math.Max(1, 0.07*cfg.seconds) * float64(time.Second))
	return nominal, probe
}

func runCrossd(cfg config, r *refs, tr *tracer, t *tally) (map[string]float64, error) {
	w := &crossdRun{cfg: cfg, refs: r, t: t}
	w.fuzz, w.part = crossdCursors()
	setupS, err := timeSetups(setups, func() error {
		ln, err := listen()
		if err != nil {
			return err
		}
		if w.node, err = startNode(ln, nodeRole{}); err != nil {
			return err
		}
		w.c = newClient(w.node)
		return w.warmUp()
	}, func() {
		w.c.close()
		w.node.stop()
		w.node = nil
	})
	if w.node != nil {
		defer w.node.stop()
		defer w.c.close()
	}
	if err != nil {
		return nil, err
	}
	nominal, probe := crossdSizes(cfg)
	if tr == nil {
		res := w.step(schedule(cfg.seed, 0, nominalRate, nominal, w.fuzz, w.part), nil, 0, true)
		// The tail is not an end-to-end metric (the closed loops have no
		// percentile with 10 samples beyond it), so it is printed here.
		fmt.Fprintf(os.Stderr, "perfbench: crossd nominal step: %d jobs, p95 latency %.1f ms\n",
			len(res.outs), quantile(res.latencies(), 0.95))
		m := map[string]float64{
			"setup_s":     setupS,
			"job_p50_ms":  median(res.latencies()),
			"cases_per_s": float64(res.tableCases) / res.span().Seconds(),
		}
		m["max_rate_jobs_s"] = w.ladder(probe)
		m["peak_rss_mb"] = peakRSSMB()
		return m, nil
	}
	return w.layers(tr, nominal)
}

// warmUp runs the reserved warm-up jobs one at a time, then resubmits
// the first, checking every result.
func (w *crossdRun) warmUp() error {
	var first []byte
	for i := 0; i <= crossdWarm; i++ {
		spec := fuzzSpec(uint64(fuzzSeedBase+i%crossdWarm), fuzzN)
		o := w.c.runJob(spec, time.Now(), nil, 0)
		if o.err == nil && o.code == http.StatusTooManyRequests {
			o.err = fmt.Errorf("warm-up job refused")
		}
		if o.err != nil {
			return o.err
		}
		if _, err := w.refs.checkJob(spec, o.body, ""); err != nil {
			return err
		}
		if i == 0 {
			first = o.body
		} else if i == crossdWarm && (!o.status.CacheHit || !bytes.Equal(first, o.body)) {
			return &checkError{"crossd.resubmit_bytes", "warm-up resubmission was not a byte-identical cache hit"}
		}
	}
	return nil
}

// layers is the traced crossd run: the nominal step in two halves, the
// first untraced and the second traced (tracing overhead), the serve
// stage timings against crossd's own stage histograms, and a fuzzgen
// and layer replay of three of the traced step's cold jobs.
func (w *crossdRun) layers(tr *tracer, nominal int) (map[string]float64, error) {
	before, err := w.c.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	plain := w.step(schedule(w.cfg.seed, 0, nominalRate, nominal/2, w.fuzz, w.part), nil, 0, true)
	traced := w.step(schedule(w.cfg.seed, 1, nominalRate, nominal/2, w.fuzz, w.part), tr, 0, true)
	after, err := w.c.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"trace.overhead_ratio": median(traced.latencies()) / median(plain.latencies()),
		"serve.submit_ms":      median(tr.durations("serve.submit")) / 1000,
		"serve.result_ms":      median(tr.durations("serve.result")) / 1000,
	}

	var waits, runs, kb, late []float64
	var benchStageMs float64
	var resubmits, hits, submissions, rejects int
	seen := map[string]bool{}
	var cold []uint64
	for si, step := range []stepResult{plain, traced} {
		for i, o := range step.outs {
			a := step.arrivals[i]
			submissions++
			late = append(late, ms(o.sent.Sub(o.due)))
			if o.code == http.StatusTooManyRequests {
				rejects++
				continue
			}
			if o.err != nil {
				continue
			}
			kb = append(kb, float64(len(o.body))/1024)
			if a.Kind == kindResubmit {
				resubmits++
				if o.status.CacheHit {
					hits++
				}
			}
			if o.status.CacheHit || seen[o.status.ID] {
				continue
			}
			seen[o.status.ID] = true
			if wait, run, ok := stageTimes(o.status); ok {
				waits = append(waits, ms(wait))
				runs = append(runs, ms(run))
				benchStageMs += ms(wait + run)
			}
			if a.Kind == kindCold && si == 1 && len(cold) < tracedJobs {
				cold = append(cold, a.Seed)
			}
		}
	}
	m["serve.queue_wait_ms"] = median(waits)
	m["serve.run_ms"] = median(runs)
	m["serve.result_kb"] = median(kb)
	m["serve.gen_late_ms"] = quantile(late, 0.95)
	if resubmits > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(resubmits)
	}
	m["serve.reject_ratio"] = float64(rejects) / float64(submissions)
	m["serve.stage_agreement"] = stageAgreement(before, after, benchStageMs)

	var gen, campaign []float64
	ls := &layerStats{}
	for i, seed := range cold {
		batches, err := fuzzBatches(seed, 0, fuzzN, &gen)
		if err != nil {
			return nil, err
		}
		for j, b := range batches {
			if err := replay(b, 1, tr, -1-i*10-j, ls); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if _, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: seed, N: fuzzN}); err != nil {
			return nil, err
		}
		campaign = append(campaign, ms(time.Since(start)))
	}
	for k, v := range ls.metrics() {
		m[k] = v
	}
	m["fuzzgen.gen_us"] = median(gen)
	m["fuzzgen.campaign_ms"] = median(campaign)

	var specs []serve.JobSpec
	for i := 0; i < tracedJobs; i++ {
		specs = append(specs, fuzzSpec(w.fuzz.take(), fuzzN))
	}
	runMs, err := tracerRunMs(w.refs, w.t, specs)
	if err != nil {
		return nil, err
	}
	m["serve.tracer_run_ms"] = runMs
	return m, nil
}

// tracedJobs is how many cold jobs the traced run takes apart.
const tracedJobs = 3
