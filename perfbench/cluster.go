package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fuzzgen"
	"repro/internal/serve"
)

// clusterNodes is an in-process cluster: two workers in one peer-cache
// tier and a coordinator over them, wired as crossd's -node/-peers and
// -cluster flags wire separate processes.
type clusterNodes struct {
	workers []*node
	coord   *node
	c       *client
}

func startCluster() (*clusterNodes, error) {
	var lns []net.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for i := 0; i < 3; i++ {
		ln, err := listen()
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
	}
	members := fmt.Sprintf("a=http://%s,b=http://%s", lns[0].Addr(), lns[1].Addr())
	cl := &clusterNodes{}
	for i, name := range []string{"a", "b"} {
		n, err := startNode(lns[i], nodeRole{self: name, members: members})
		if err != nil {
			cl.stop()
			closeAll()
			return nil, err
		}
		cl.workers = append(cl.workers, n)
	}
	coord, err := startNode(lns[2], nodeRole{coordinator: true, members: members})
	if err != nil {
		cl.stop()
		closeAll()
		return nil, err
	}
	cl.coord = coord
	cl.c = newClient(coord)
	return cl, nil
}

func (cl *clusterNodes) stop() {
	if cl.coord != nil {
		cl.c.close()
		cl.coord.stop()
	}
	for _, w := range cl.workers {
		w.stop()
	}
}

// clusterCampaign is one traced iteration, kept for analysis after the
// loop so the analysis does not count toward the iteration's time.
type clusterCampaign struct {
	spec   serve.JobSpec
	out    outcome
	traced bool
}

func clusterSizes(tiny bool) (n, base, pool int) {
	if tiny {
		return tinyClusterN, tinyClusterSeedBase, tinyClusterPool
	}
	return clusterN, clusterSeedBase, clusterPool
}

func runCluster(cfg config, r *refs, tr *tracer, t *tally) (map[string]float64, error) {
	n, base, pool := clusterSizes(cfg.tiny)
	// Tiny pool entry 0 is the warm-up campaign; the tiny workload uses
	// the rest. Each iteration takes a fresh seed, so nothing is cached.
	reserved := 0
	if cfg.tiny {
		reserved = 1
	}
	seeds := &cursor{base: base, reserved: reserved, size: pool}
	seeds.next = rand.New(rand.NewPCG(cfg.seed, 3)).IntN(pool - reserved)
	var cl *clusterNodes
	setupS, err := timeSetups(setups, func() error {
		var err error
		if cl, err = startCluster(); err != nil {
			return err
		}
		spec := fuzzSpec(tinyClusterSeedBase, tinyClusterN)
		o := cl.c.runJob(spec, time.Now(), nil, 0)
		if o.err != nil {
			return o.err
		}
		if o.code == http.StatusTooManyRequests {
			return fmt.Errorf("warm-up campaign refused")
		}
		_, err = r.checkJob(spec, o.body, "cluster.merged_equals_single_node")
		return err
	}, func() {
		cl.stop()
		cl = nil
	})
	if cl != nil {
		defer cl.stop()
	}
	if err != nil {
		return nil, err
	}

	var campaigns []clusterCampaign
	iter := func(o iterOpts) (int, error) {
		spec := fuzzSpec(seeds.take(), n)
		out := cl.c.runJob(spec, time.Now(), o.tr, o.iter)
		if out.err == nil && out.code == http.StatusTooManyRequests {
			out.err = fmt.Errorf("campaign %s refused with 429", jobLabel(spec))
		}
		if out.err != nil {
			return 0, out.err
		}
		jr, err := r.checkJob(spec, out.body, "cluster.merged_equals_single_node")
		if err != nil {
			return 0, err
		}
		campaigns = append(campaigns, clusterCampaign{spec: spec, out: out, traced: o.tr != nil})
		return jr.Fuzz.TableCases, nil
	}
	maxIters := pool - reserved
	if tr == nil {
		return untracedRun(cfg, maxIters, t, setupS, iter), nil
	}
	before, err := cl.c.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	traced, plain := closedLoop(cfg.seconds/2, maxIters, t, tr, iter)
	if len(traced.walls) == 0 || len(plain.walls) == 0 {
		return nil, fmt.Errorf("no successful iteration to measure")
	}
	after, err := cl.c.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"trace.overhead_ratio": median(traced.walls) / median(plain.walls)}
	if err := clusterServe(cl, r, t, tr, campaigns, before, after, m); err != nil {
		return nil, err
	}
	if err := clusterLayers(cfg, cl, r, tr, campaigns, median(plain.walls), m); err != nil {
		return nil, err
	}
	return m, nil
}

// clusterServe derives the serve-layer metrics of the coordinator, the
// crossd the client talks to: the client's POST and /result times, the
// campaigns' JobStatus stage times against the coordinator's own stage
// histograms, a cache-hit resubmission of two campaigns (checked
// byte-identical), and the run time of cold jobs under crossd's default
// tracer.
func clusterServe(cl *clusterNodes, r *refs, t *tally, tr *tracer, campaigns []clusterCampaign, before, after map[string]float64, m map[string]float64) error {
	m["serve.submit_ms"] = median(tr.durations("serve.submit")) / 1000
	m["serve.result_ms"] = median(tr.durations("serve.result")) / 1000
	var waits, runs, kb []float64
	var benchStageMs float64
	for _, cc := range campaigns {
		kb = append(kb, float64(len(cc.out.body))/1024)
		if wait, run, ok := stageTimes(cc.out.status); ok {
			waits = append(waits, ms(wait))
			runs = append(runs, ms(run))
			benchStageMs += ms(wait + run)
		}
	}
	m["serve.queue_wait_ms"] = median(waits)
	m["serve.run_ms"] = median(runs)
	m["serve.result_kb"] = median(kb)
	m["serve.stage_agreement"] = stageAgreement(before, after, benchStageMs)

	var resubmits, hits int
	for _, cc := range campaigns[:min(2, len(campaigns))] {
		t.attempt(1)
		resubmits++
		o := cl.c.runJob(cc.spec, time.Now(), nil, 0)
		switch {
		case o.err != nil:
			t.fail(o.err)
		case !bytes.Equal(o.body, cc.out.body):
			t.fail(&checkError{"cluster.resubmit_bytes", jobLabel(cc.spec) + ": resubmitted result differs from the first"})
		case o.status.CacheHit:
			hits++
		}
	}
	m["serve.cache_hit_ratio"] = float64(hits) / float64(resubmits)

	specs := []serve.JobSpec{fuzzSpec(fuzzSeedBase+crossdWarm, fuzzN), fuzzSpec(fuzzSeedBase+crossdWarm+1, fuzzN)}
	runMs, err := tracerRunMs(r, t, specs)
	if err != nil {
		return err
	}
	m["serve.tracer_run_ms"] = runMs
	return nil
}

// clusterLayers derives the cluster and fuzzgen per-layer metrics from
// the traced campaigns: split and merge replayed on the real sub-jobs,
// sub-job run times from the workers' job statuses, the coordinator's
// /cluster counters, a single-node execution of the same campaigns,
// and a layer replay of one sub-job's cases.
func clusterLayers(cfg config, cl *clusterNodes, r *refs, tr *tracer, campaigns []clusterCampaign, clusterWall float64, m map[string]float64) error {
	var splitUS, mergeMS, subRun, overhead, straggle, single, campaign []float64
	var analysed []clusterCampaign
	for _, cc := range campaigns {
		if !cc.traced {
			continue
		}
		if len(analysed) == 2 {
			break // two campaigns bound the traced run's time
		}
		analysed = append(analysed, cc)
		var subs []cluster.SubJob
		var err error
		dur := tr.timed(-1, 0, "cluster.Split", func() { subs, _, err = cluster.Split(cc.spec, len(cl.workers)) })
		if err != nil {
			return err
		}
		splitUS = append(splitUS, us(dur))

		var runs []float64
		var results []*serve.JobResult
		for _, sub := range subs {
			st, body, err := cl.subJob(sub.Key)
			if err != nil {
				return err
			}
			if _, run, ok := stageTimes(st); ok {
				runs = append(runs, ms(run))
			}
			var res serve.JobResult
			if err := json.Unmarshal(body, &res); err != nil {
				return err
			}
			results = append(results, &res)
		}
		var merged *serve.JobResult
		dur = tr.timed(-1, 0, "cluster.Merge", func() { merged, err = cluster.Merge(cc.spec, results) })
		if err != nil {
			return err
		}
		if want := r.Jobs[jobLabel(cc.spec)].Report; merged.ReportSHA != want {
			return &checkError{"cluster.merge_replay", fmt.Sprintf("%s: merged report %s, want %s", jobLabel(cc.spec), merged.ReportSHA, want)}
		}
		mergeMS = append(mergeMS, ms(dur))
		subRun = append(subRun, runs...)
		if _, coordRun, ok := stageTimes(cc.out.status); ok && len(runs) > 0 {
			slowest := quantile(runs, 1)
			overhead = append(overhead, ms(coordRun)-slowest)
			straggle = append(straggle, slowest/mean(runs))
		}

		watch := startWatch() // as the cluster walls are timed
		if _, err := (&serve.Executor{}).Execute(context.Background(), cc.spec, nil); err != nil {
			return err
		}
		single = append(single, watch.seconds())
		start := time.Now()
		if _, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: cc.spec.Seed, N: cc.spec.N}); err != nil {
			return err
		}
		campaign = append(campaign, ms(time.Since(start)))
	}
	m["cluster.split_us"] = median(splitUS)
	m["cluster.merge_ms"] = median(mergeMS)
	m["cluster.subjob_run_ms"] = median(subRun)
	m["cluster.fanout_overhead_ms"] = median(overhead)
	m["cluster.straggler_ratio"] = median(straggle)
	m["cluster.speedup_x"] = median(single) / clusterWall
	m["fuzzgen.campaign_ms"] = median(campaign)

	counters, err := cl.c.scrape("/cluster")
	if err != nil {
		return err
	}
	for key, v := range counters {
		switch {
		case strings.HasPrefix(key, "crossd_subjobs_stolen_total"):
			m["cluster.steals"] += v
		case strings.HasPrefix(key, "crossd_peer_cache_hits_total"):
			m["cluster.peer_hits"] += v
		}
	}

	// Layer replay of the first campaign's first sub-job (the seed range
	// one worker executes).
	var gen []float64
	ls := &layerStats{}
	if len(analysed) > 0 {
		spec := analysed[0].spec
		batches, err := fuzzBatches(spec.Seed, 0, spec.N/len(cl.workers), &gen)
		if err != nil {
			return err
		}
		every := 8
		if cfg.tiny {
			every = 1
		}
		for j, b := range batches {
			if err := replay(b, every, tr, -2-j, ls); err != nil {
				return err
			}
		}
	}
	for k, v := range ls.metrics() {
		m[k] = v
	}
	m["fuzzgen.gen_us"] = median(gen)
	return nil
}

// subJob finds the worker job that executed a sub-job key and fetches
// the result the worker cached for it.
func (cl *clusterNodes) subJob(key string) (serve.JobStatus, []byte, error) {
	for _, w := range cl.workers {
		c := newClient(w)
		body, err := c.get("/api/v1/jobs")
		if err != nil {
			c.close()
			return serve.JobStatus{}, nil, err
		}
		var statuses []serve.JobStatus
		if err := json.Unmarshal(body, &statuses); err != nil {
			c.close()
			return serve.JobStatus{}, nil, err
		}
		for _, st := range statuses {
			if st.Key == key && !st.CacheHit && st.State == serve.StateDone {
				result, err := c.get("/api/v1/cache/" + key)
				c.close()
				return st, result, err
			}
		}
		c.close()
	}
	return serve.JobStatus{}, nil, fmt.Errorf("no worker executed sub-job %s", key)
}
