package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// smallFuzzSpec is cheap enough for unit tests but produces failures.
func smallFuzzSpec() JobSpec {
	return JobSpec{Kind: KindFuzz, Seed: 5, N: 40, Parallel: 2}
}

func newTestScheduler(t *testing.T, opts SchedulerOptions) (*Scheduler, *Executor) {
	t.Helper()
	if opts.Cache == nil {
		c, err := NewCache(16, "")
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	var exec *Executor
	if opts.Executor == nil {
		exec = &Executor{}
		opts.Executor = exec
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 8
	}
	s := NewScheduler(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, exec
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
}

// The acceptance-criteria core: resubmitting an identical spec returns
// the byte-identical report from cache without re-executing a single
// case.
func TestResubmitServedFromCache(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{})
	first, err := s.Submit(smallFuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	if st := first.Status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("first run: %+v", st)
	}
	if n := exec.Executions(); n != 1 {
		t.Fatalf("first submission executed %d times", n)
	}
	cold, _ := first.Result()

	second, err := s.Submit(smallFuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second)
	st := second.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("second run not a cache hit: %+v", st)
	}
	if n := exec.Executions(); n != 1 {
		t.Errorf("cache hit re-executed: %d executions", n)
	}
	cached, _ := second.Result()
	if !bytes.Equal(cold, cached) {
		t.Error("cached result is not byte-identical to the cold result")
	}
	var res JobResult
	if err := json.Unmarshal(cached, &res); err != nil {
		t.Fatalf("result is not valid JSON: %v", err)
	}
	if res.Fuzz == nil || res.Fuzz.Failures == 0 || res.ReportSHA == "" {
		t.Errorf("result payload incomplete: %+v", res)
	}
}

// Overlapping concurrent submissions of the same spec set: every job
// terminates done, each distinct spec executes exactly once (byKey
// coalescing plus the under-lock cache probe), and all clients of a
// key observe identical bytes.
func TestConcurrentOverlappingSubmissions(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{Workers: 4, QueueDepth: 64})
	specs := []JobSpec{
		{Kind: KindFuzz, Seed: 5, N: 40, Parallel: 2},
		{Kind: KindFuzz, Seed: 6, N: 40, Parallel: 2},
		{Kind: KindFuzz, Seed: 7, N: 40, Parallel: 2},
	}
	const clients = 6
	results := make([][]*Job, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				job, err := s.Submit(spec)
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					continue
				}
				results[cl] = append(results[cl], job)
			}
		}()
	}
	wg.Wait()
	byKey := map[string][]byte{}
	for cl := range results {
		for _, job := range results[cl] {
			waitDone(t, job)
			if st := job.Status(); st.State != StateDone {
				t.Fatalf("job %s finished %s (%s)", job.ID, st.State, st.Error)
			}
			data, _ := job.Result()
			if prev, ok := byKey[job.Key]; ok {
				if !bytes.Equal(prev, data) {
					t.Errorf("key %s served two different results", job.Key)
				}
			} else {
				byKey[job.Key] = data
			}
		}
	}
	if len(byKey) != len(specs) {
		t.Errorf("distinct keys = %d, want %d", len(byKey), len(specs))
	}
	if n := exec.Executions(); n != int64(len(specs)) {
		t.Errorf("executions = %d, want %d (one per distinct spec)", n, len(specs))
	}
}

// blockingRunner parks every Execute until released (or its context
// ends), making queue-occupancy tests deterministic.
type blockingRunner struct {
	started chan struct{} // one token per Execute entry
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (r *blockingRunner) Execute(ctx context.Context, spec JobSpec, _ func(core.Failure)) (*JobResult, error) {
	r.started <- struct{}{}
	select {
	case <-r.release:
		key, err := spec.CacheKey()
		if err != nil {
			return nil, err
		}
		return &JobResult{Key: key, Kind: spec.Kind, Spec: spec, Rendered: "fake", ReportSHA: core.HashBytes([]byte("fake"))}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Queue-depth admission control: with the single worker wedged and the
// queue at depth, a third distinct spec is rejected with ErrQueueFull,
// while a duplicate of the queued spec still coalesces (no slot
// needed).
func TestQueueBackpressure(t *testing.T) {
	runner := newBlockingRunner()
	s, _ := newTestScheduler(t, SchedulerOptions{Workers: 1, QueueDepth: 1, Executor: runner})

	running, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 100, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // worker holds job 1; queue is empty again
	queued, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 101, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 102, N: 10}); err != ErrQueueFull {
		t.Errorf("overload submission returned %v, want ErrQueueFull", err)
	}
	co, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 101, N: 10})
	if err != nil {
		t.Fatalf("coalesced submission rejected: %v", err)
	}
	if co != queued {
		t.Error("identical queued spec did not coalesce onto the live job")
	}
	close(runner.release)
	waitDone(t, running)
	waitDone(t, queued)
	if st := queued.Status(); st.State != StateDone {
		t.Errorf("queued job finished %s", st.State)
	}
}

// Drain lets admitted jobs finish and rejects new ones.
func TestDrain(t *testing.T) {
	c, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(SchedulerOptions{Workers: 2, QueueDepth: 8, Cache: c, Executor: &Executor{}})
	job, err := s.Submit(smallFuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s.Drain(ctx)
	if st := job.Status(); st.State != StateDone {
		t.Errorf("in-flight job not drained: %+v", st)
	}
	if _, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 9, N: 10}); err != ErrDraining {
		t.Errorf("post-drain submission returned %v, want ErrDraining", err)
	}
	s.Drain(ctx) // idempotent
}

// An expired drain context cancels still-running jobs instead of
// hanging forever.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	runner := newBlockingRunner()
	c, _ := NewCache(16, "")
	s := NewScheduler(SchedulerOptions{Workers: 1, QueueDepth: 4, Cache: c, Executor: runner})
	job, err := s.Submit(JobSpec{Kind: KindFuzz, Seed: 200, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	waitDone(t, job)
	if st := job.Status(); st.State != StateCancelled {
		t.Errorf("job under expired drain = %s, want cancelled", st.State)
	}
}

// A job timeout cancels the run; nothing is cached for its key. Every
// job kind honours it, partition campaigns on the real executor too.
func TestJobTimeoutCancelsAndSkipsCache(t *testing.T) {
	for _, tc := range []struct {
		name    string
		runner  Runner
		timeout time.Duration
		spec    JobSpec
	}{
		// Never released: only ctx can end it.
		{"blocking", newBlockingRunner(), 30 * time.Millisecond, JobSpec{Kind: KindFuzz, Seed: 42, N: 10}},
		// The deadline has passed before the campaign's first unit.
		{"partition", &Executor{}, time.Nanosecond, partitionSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestScheduler(t, SchedulerOptions{
				Workers:    1,
				QueueDepth: 4,
				JobTimeout: tc.timeout,
				Executor:   tc.runner,
			})
			job, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			if st := job.Status(); st.State != StateCancelled {
				t.Fatalf("timed-out job state = %s (%s)", st.State, st.Error)
			}
			key, _ := tc.spec.CacheKey()
			if _, ok := s.opts.Cache.Get(key); ok {
				t.Error("cancelled job left a cached (partial) result")
			}
			if _, done := job.Result(); done {
				t.Error("cancelled job claims a result")
			}
		})
	}
}

// The service metrics move: submissions count, hit ratio reflects the
// second (cached) submission, the cache hit never reaches a worker.
func TestSchedulerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestScheduler(t, SchedulerOptions{Metrics: reg})
	j1, err := s.Submit(smallFuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, err := s.Submit(smallFuzzSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if v := reg.Counter(obs.MetricCacheHits).Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
	if v := reg.Counter(obs.MetricCacheMisses).Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}
	if v := reg.Gauge(obs.MetricCacheHitRatio).Value(); v != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", v)
	}
	if v := reg.Counter(obs.MetricJobsSubmitted, "kind", KindFuzz).Value(); v != 2 {
		t.Errorf("submitted = %d, want 2", v)
	}
	if v := reg.Counter(obs.MetricJobsFinished, "state", StateDone).Value(); v != 1 {
		t.Errorf("finished done = %d, want 1 (the cache hit never ran)", v)
	}
	if v := reg.Gauge(obs.MetricInflightJobs).Value(); v != 0 {
		t.Errorf("in-flight after completion = %v, want 0", v)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	s, exec := newTestScheduler(t, SchedulerOptions{})
	for _, spec := range []JobSpec{
		{Kind: "nope"},
		{Kind: KindFuzz, N: 0},
		{Kind: KindFuzz, N: -5},
		{Kind: KindCorpus, Families: []string{"zz"}},
		{Kind: KindFuzz, N: 10, Parallel: -1},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit accepted invalid spec %+v", spec)
		}
	}
	if exec.Executions() != 0 {
		t.Error("invalid specs reached the executor")
	}
}

// Cache keys: execution hints are excluded, result-shaping fields are
// included, fuzz confs 0 and 6 (the default) are the same job.
func TestCacheKeySemantics(t *testing.T) {
	base := JobSpec{Kind: KindFuzz, Seed: 1, N: 100, Parallel: 1}
	k1, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Parallel = 8
	if k2, _ := p.CacheKey(); k2 != k1 {
		t.Error("Parallel changed the cache key")
	}
	d := base
	d.Confs = 6
	if k3, _ := d.CacheKey(); k3 != k1 {
		t.Error("confs=6 (the default) hashed differently from confs=0")
	}
	n := base
	n.N = 101
	if k4, _ := n.CacheKey(); k4 == k1 {
		t.Error("N did not change the cache key")
	}
	c1 := JobSpec{Kind: KindCorpus, Families: []string{"sh", "ss"}}
	c2 := JobSpec{Kind: KindCorpus, Families: []string{"ss", "sh"}}
	kc1, err := c1.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kc2, _ := c2.CacheKey(); kc2 != kc1 {
		t.Error("family order changed the cache key")
	}
	conf := JobSpec{Kind: KindCorpus, Conf: map[string]string{"spark.sql.ansi.enabled": "false"}}
	if kc3, _ := conf.CacheKey(); kc3 == kc1 {
		t.Error("conf did not change the corpus cache key")
	}
}
