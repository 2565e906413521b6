package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/cluster/chash"
	"repro/internal/obs"
	"repro/internal/serve"
)

// maxConns bounds the benchmark client's HTTP connections per server:
// the reference box's core count.
const maxConns = 2

// jobTimeout bounds how long the client waits for one job.
const jobTimeout = 60 * time.Second

// node is one in-process crossd: a scheduler and its HTTP API on a
// loopback listener.
type node struct {
	sched   *serve.Scheduler
	metrics *obs.Registry
	srv     *http.Server
	url     string
	served  chan error
}

// nodeRole selects how startNode wires a crossd, mirroring cmd/crossd's
// flags: plain single node, -cluster coordinator, or -node worker.
type nodeRole struct {
	coordinator bool
	self        string // worker name in the peer cache tier
	members     string // name=url[,name=url...] membership
	// spanCap is -span-cap. The workloads run with 0 (tracing off): with
	// crossd's default of 4096, every oracle failure snapshots all
	// retained spans to render its chain, which makes an n=200 fuzz job
	// about 15x slower and caps a 2-worker node near 3 jobs/s. The
	// traced crossd run measures that cost as serve.tracer_run_ms.
	spanCap int
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode wires one crossd over ln exactly as cmd/crossd's run does
// with its default flags (2 workers, queue 16, 128 cache entries, the
// flight recorder and metrics) and the role's -span-cap.
func startNode(ln net.Listener, role nodeRole) (*node, error) {
	cache, err := serve.NewCache(128, "")
	if err != nil {
		return nil, err
	}
	metrics := obs.NewRegistry()
	var tracer *obs.Tracer
	if role.spanCap > 0 {
		tracer = obs.NewTracer(obs.WallClock{})
		tracer.SetCap(role.spanCap)
	}
	recorder := obs.NewRecorder(1024)
	cache.SetRecorder(recorder)

	var runner serve.Runner = &serve.Executor{Metrics: metrics, Tracer: tracer, Recorder: recorder}
	var clusterHandler http.Handler
	var peers serve.PeerCache
	switch {
	case role.coordinator:
		nodes, err := cluster.ParseNodes(role.members)
		if err != nil {
			return nil, err
		}
		coord, err := cluster.New(cluster.Options{Nodes: nodes, Metrics: metrics, Recorder: recorder})
		if err != nil {
			return nil, err
		}
		runner = coord
		clusterHandler = &cluster.MetricsHandler{Nodes: nodes, Self: metrics, SelfName: "coordinator"}
	case role.self != "":
		nodes, err := cluster.ParseNodes(role.members)
		if err != nil {
			return nil, err
		}
		p := cluster.NewPeers(role.self)
		p.Connect(chash.New(sortedKeys(nodes)...), nodes)
		peers = p
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers:    2,
		QueueDepth: 16,
		JobTimeout: 10 * time.Minute,
		Cache:      cache,
		Executor:   runner,
		Metrics:    metrics,
		Tracer:     tracer,
		Recorder:   recorder,
		Peers:      peers,
	})
	n := &node{
		sched:   sched,
		metrics: metrics,
		srv: &http.Server{Handler: serve.NewServer(sched, serve.ServerOptions{
			Metrics:  metrics,
			Recorder: recorder,
			Version:  buildinfo.Get().String(),
			Cluster:  clusterHandler,
		})},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// stop lets queued and running jobs finish, then closes the listener
// and every connection and waits for the server goroutine to return.
// Close, not Shutdown: a peer's dialled-but-unused connection would
// hold Shutdown for 5 s, and no request is worth waiting for once the
// scheduler has drained.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.sched.Drain(ctx)
	_ = n.srv.Close()
	<-n.served
}

// client is the benchmark's HTTP client for one crossd. Completion is
// observed through the in-process Job.Done(), never by polling.
type client struct {
	base  string
	http  *http.Client
	sched *serve.Scheduler
}

func newClient(n *node) *client {
	transport := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{base: n.url, http: &http.Client{Transport: transport, Timeout: jobTimeout}, sched: n.sched}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit POSTs a job spec and returns the HTTP status and job status.
func (c *client) submit(spec serve.JobSpec) (int, serve.JobStatus, error) {
	var st serve.JobStatus
	data, err := json.Marshal(spec)
	if err != nil {
		return 0, st, err
	}
	resp, err := c.http.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, st, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, fmt.Errorf("submit: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		if err := json.Unmarshal(body, &st); err != nil {
			return resp.StatusCode, st, fmt.Errorf("submit: %w", err)
		}
		return resp.StatusCode, st, nil
	case http.StatusTooManyRequests:
		return resp.StatusCode, st, nil
	default:
		return resp.StatusCode, st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// get fetches a path and returns the body of a 200 response.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape parses a Prometheus exposition endpoint.
func (c *client) scrape(path string) (map[string]float64, error) {
	body, err := c.get(path)
	if err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(bytes.NewReader(body))
}

// outcome is one job as the client saw it.
type outcome struct {
	due, sent, done time.Time
	submit, result  time.Duration
	code            int
	status          serve.JobStatus
	body            []byte
	err             error
}

func (o outcome) latencyMs() float64 {
	if o.err != nil || o.code == http.StatusTooManyRequests {
		// A failed or refused job misses every latency limit.
		return ms(jobTimeout)
	}
	return ms(o.done.Sub(o.due))
}

// runJob submits spec, waits for the job to finish and fetches its
// /result body. iter tags the job's spans.
func (c *client) runJob(spec serve.JobSpec, due time.Time, tr *tracer, iter int) outcome {
	o := outcome{due: due, sent: time.Now()}
	root, end := tr.begin(iter, 0, "job")
	defer end()
	o.submit = tr.timed(iter, root, "serve.submit", func() { o.code, o.status, o.err = c.submit(spec) })
	if o.err != nil || o.code == http.StatusTooManyRequests {
		return o
	}
	job, ok := c.sched.Job(o.status.ID)
	if !ok {
		o.err = fmt.Errorf("job %s unknown to the scheduler", o.status.ID)
		return o
	}
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	tr.timed(iter, root, "serve.wait", func() {
		select {
		case <-job.Done():
		case <-timer.C:
			o.err = fmt.Errorf("job %s timed out after %s", o.status.ID, jobTimeout)
		}
	})
	if o.err != nil {
		return o
	}
	o.status = job.Status()
	if o.status.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error)
		return o
	}
	o.result = tr.timed(iter, root, "serve.result", func() { o.body, o.err = c.get("/api/v1/jobs/" + o.status.ID + "/result") })
	o.done = time.Now()
	return o
}

// stageTimes parses a finished job's queue wait and run time from its
// status timestamps.
func stageTimes(st serve.JobStatus) (wait, run time.Duration, ok bool) {
	q, err1 := time.Parse(time.RFC3339Nano, st.Queued)
	s, err2 := time.Parse(time.RFC3339Nano, st.Started)
	f, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, false
	}
	return s.Sub(q), f.Sub(s), true
}

// stageAgreement compares crossd's own stage histograms with the
// client's view: the growth of the queue_wait + run + encode
// crossd_stage_duration_ms sums between two /metrics scrapes against
// benchStageMs, the JobStatus (Finished − Queued) total of the jobs
// executed in between, as min ÷ max (1 = one truth).
func stageAgreement(before, after map[string]float64, benchStageMs float64) float64 {
	var scrapedMs float64
	for _, stage := range []string{obs.StageQueueWait, obs.StageRun, obs.StageEncode} {
		key := fmt.Sprintf("%s_sum{stage=%q}", obs.MetricStageDurationMs, stage)
		scrapedMs += after[key] - before[key]
	}
	if benchStageMs <= 0 || scrapedMs <= 0 {
		return 0
	}
	return math.Min(scrapedMs, benchStageMs) / math.Max(scrapedMs, benchStageMs)
}

// tracerRunMs is the median run time of the given cold jobs, one at a
// time, on a crossd wired with its default -span-cap 4096 tracer.
func tracerRunMs(r *refs, t *tally, specs []serve.JobSpec) (float64, error) {
	ln, err := listen()
	if err != nil {
		return 0, err
	}
	n, err := startNode(ln, nodeRole{spanCap: 4096})
	if err != nil {
		ln.Close()
		return 0, err
	}
	defer n.stop()
	c := newClient(n)
	defer c.close()
	var runs []float64
	for _, spec := range specs {
		t.attempt(1)
		o := c.runJob(spec, time.Now(), nil, 0)
		if o.err == nil && o.code == http.StatusTooManyRequests {
			o.err = fmt.Errorf("job %s refused", jobLabel(spec))
		}
		if o.err == nil {
			_, o.err = r.checkJob(spec, o.body, "")
		}
		if o.err != nil {
			t.fail(o.err)
			continue
		}
		if _, run, ok := stageTimes(o.status); ok {
			runs = append(runs, ms(run))
		}
	}
	return median(runs), nil
}
