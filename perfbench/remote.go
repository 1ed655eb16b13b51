package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"punica/internal/dist"
	"punica/internal/models"
	"punica/internal/remote"
	"punica/internal/sched"
	"punica/internal/workload"
)

// live-remote-poisson: open-loop Poisson arrivals at remoteRate req/s of
// simulated time, Skewed over remoteAdapters adapters, against a
// frontend over two runners.
const (
	remoteRate     = 2
	remoteAdapters = 4
	remoteRunners  = 2
	// SLO limits in simulated time.
	sloTTFT = time.Second
	sloTPOT = 50 * time.Millisecond
)

// remoteStack is a frontend over runners, each served on its own
// loopback port, plus the benchmark's client of the frontend.
type remoteStack struct {
	runners  []*remote.Runner
	rservers []*server
	front    *remote.Frontend
	fserver  *server
	client   *client
}

// startRemote builds the deployment punica-serve's frontend mode builds:
// the paper policy, 1 s health probes, no admission cap, no retries and
// no breakers.
func startRemote(ctx context.Context, tr *tracer) (*remoteStack, error) {
	s := &remoteStack{}
	var urls []string
	for i := range remoteRunners {
		rn := remote.NewRunner(fmt.Sprintf("gpu-%02d", i), liveEngine(), liveSpeedup)
		s.runners = append(s.runners, rn)
		var h http.Handler = rn.Handler()
		if tr != nil {
			h = tr.wrap("runner", h)
		}
		srv, err := startServer(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.rservers = append(s.rservers, srv)
		urls = append(urls, srv.url)
	}
	pol, err := sched.PolicyByName("paper", sched.PolicyConfig{
		Base: models.Llama2_7B(), DefaultRank: models.DefaultLoRARank,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = remote.NewFrontendWithOptions(urls, remote.FrontendOptions{
		Policy:         pol,
		HealthInterval: time.Second,
		Retry:          remote.RetryPolicy{MaxAttempts: 1},
		Breaker:        remote.BreakerConfig{Cooldown: 3 * time.Second},
	})
	var h http.Handler = s.front.Handler()
	if tr != nil {
		h = tr.wrap("frontend", h)
	}
	if s.fserver, err = startServer(h); err != nil {
		s.close()
		return nil, err
	}
	s.client = newClient(s.fserver.url, clientConns())
	if err := s.client.warm(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *remoteStack) close() {
	if s.client != nil {
		s.client.close()
	}
	if s.fserver != nil {
		s.fserver.close()
	}
	if s.front != nil {
		s.front.Close()
	}
	for _, srv := range s.rservers {
		srv.close()
	}
	for _, rn := range s.runners {
		rn.Close()
	}
}

// remoteTrace draws the open-loop arrivals covering the measuring time.
func remoteTrace(seed int64, seconds time.Duration) []workload.Request {
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), seed)
	horizon := seconds * liveSpeedup
	return gen.Poisson(func(time.Duration) float64 { return remoteRate }, remoteRate, horizon, remoteAdapters)
}

func runLiveRemote(seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		stack    *remoteStack
		trace    []workload.Request
		setupDur []float64
	)
	for i := range setups {
		t0 := time.Now()
		trace = remoteTrace(seed, seconds)
		st, err := startRemote(ctx, tr)
		if err != nil {
			return nil, err
		}
		setupDur = append(setupDur, time.Since(t0).Seconds())
		if i < setups-1 {
			st.close()
		} else {
			stack = st
		}
	}
	defer stack.close()
	if err := checkTrace("live-remote-poisson", len(trace)); err != nil {
		return nil, err
	}

	var smp *remoteSamples
	if tr != nil {
		smp = &remoteSamples{hc: &http.Client{Transport: &http.Transport{}}}
		defer smp.hc.CloseIdleConnections()
		tr.start()
	}
	var run liveRun
	var wg sync.WaitGroup
	ph := startPhase()
	var stopSampler func()
	if smp != nil {
		s := startSampler(samplePeriod, func() { smp.sample(ctx, stack) })
		stopSampler = s.stop
	}
	start := time.Now().Add(5 * time.Millisecond)
	for _, w := range trace {
		due := start.Add(w.Arrival / liveSpeedup)
		time.Sleep(time.Until(due))
		o := &outcome{due: due}
		run.add(o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stack.client.generate(ctx, w, o)
		}()
	}
	drainErr := waitDrain(&wg, cancel, start.Add(seconds))
	if stopSampler != nil {
		stopSampler()
	}
	cost := ph.stop()
	if tr != nil {
		tr.stop()
	}

	r := &result{}
	if drainErr != nil {
		r.fail("%v", drainErr)
	}
	r.add("setup_s", "s", median(setupDur))
	run.summarize(r, start, seconds, cost)
	var late []float64
	met := 0
	for _, o := range run.outcomes {
		if !o.sent.IsZero() {
			late = append(late, ms(o.sent.Sub(o.due)))
		}
		if o.meetsSLO(sloTTFT/liveSpeedup, sloTPOT/liveSpeedup) {
			met++
		}
	}
	r.add("slo_attain", "ratio", float64(met)/float64(len(run.outcomes)))
	r.add("load.client_conns", "count", float64(stack.fserver.conns.Load()))
	r.addPct("gen.late_p50_ms", "ms", percentile(late, 50))
	r.addPct("gen.late_p99_ms", "ms", percentile(late, 99))
	if tr == nil {
		return r, nil
	}

	ok := float64(len(run.outcomes) - r.failed)
	state := tr.stats("runner.state")
	// Each sampled GET /v1/stats makes the frontend fetch every runner's
	// state once; those fetches are the benchmark's, not the program's.
	stateCalls := state.n - smp.statsCalls*remoteRunners
	r.add("remote.state.calls_per_req", "count", float64(stateCalls)/ok)
	if state.n > 0 {
		r.add("remote.state.not_modified_ratio", "ratio", float64(tr.notModified)/float64(state.n))
	}
	r.addPct("remote.state.p50_us", "us", percentile(state.durUS, 50))
	r.addPct("remote.state.p99_us", "us", percentile(state.durUS, 99))
	enq := tr.stats("runner.enqueue")
	r.addPct("remote.enqueue.p50_us", "us", percentile(enq.durUS, 50))
	r.addPct("remote.enqueue.p99_us", "us", percentile(enq.durUS, 99))
	r.add("remote.other.calls_per_req", "count", float64(tr.stats("runner.other").n)/ok)
	r.add("remote.rpc_bytes_per_req", "B", float64(tr.rpcBytes)/ok)
	stream := tr.stats("runner.stream")
	r.addPct("remote.stream.first_write_ms", "ms", percentile(stream.firstMS, 50))
	if stream.lines > 0 {
		r.add("remote.stream.bytes_per_token", "B", float64(stream.bytes)/float64(stream.lines))
	}
	r.addPct("remote.frontend.first_byte_ms", "ms", percentile(tr.stats("frontend.generate").firstMS, 50))
	var proxy []float64
	for id, f := range tr.serverFirst {
		if rf, ok := tr.runnerFirst[id]; ok {
			proxy = append(proxy, ms(f.Sub(rf)))
		}
	}
	r.addPct("remote.frontend.proxy_ms", "ms", percentile(proxy, 50))
	smp.addReadings(r)
	tr.addClientSpans(run.outcomes)
	tr.addCPUShares(r)
	addGoReadings(r, cost, ok)
	tr.addSpanReadings(r, spanPath("live-remote-poisson", seed))
	return r, nil
}

// samplePeriod is the traced runs' state sampling interval, slow enough
// that the sampling does not load the program.
const samplePeriod = 200 * time.Millisecond

// remoteSamples are the frontend queue and runner states sampled during
// a traced live-remote run.
type remoteSamples struct {
	// hc fetches runner states over its own connections.
	hc         *http.Client
	statsCalls int
	queue      []float64
	queuePeak  int
	prev       []remote.State
	prevAt     time.Time
	// Per interval and runner: steps per simulated second, tokens per
	// step, batch fill, and free KvCache share.
	stepRate, batchMean, fill, kvFree, resident []float64
	failed                                      int
}

func (m *remoteSamples) sample(ctx context.Context, s *remoteStack) {
	var stats struct {
		QueueLen  int `json:"queue_len"`
		QueuePeak int `json:"queue_peak"`
	}
	m.statsCalls++
	if err := getJSON(ctx, s.client.hc[0], s.fserver.url+"/v1/stats", &stats); err != nil {
		m.failed++
		return
	}
	m.queue = append(m.queue, float64(stats.QueueLen))
	m.queuePeak = max(m.queuePeak, stats.QueuePeak)
	now := time.Now()
	cur := make([]remote.State, len(s.rservers))
	for i, srv := range s.rservers {
		if err := getJSON(ctx, m.hc, srv.url+"/runner/state", &cur[i]); err != nil {
			m.failed++
			return
		}
	}
	if m.prev != nil {
		simDT := now.Sub(m.prevAt).Seconds() * liveSpeedup
		for i, st := range cur {
			dSteps := float64(st.Steps - m.prev[i].Steps)
			m.stepRate = append(m.stepRate, dSteps/simDT)
			if dSteps > 0 {
				m.batchMean = append(m.batchMean, float64(st.Tokens-m.prev[i].Tokens)/dSteps)
			}
		}
	}
	for _, st := range cur {
		if st.MaxBatch > 0 {
			m.fill = append(m.fill, float64(st.ActiveBatch)/float64(st.MaxBatch))
		}
		if st.TotalPages > 0 {
			m.kvFree = append(m.kvFree, float64(st.FreePages)/float64(st.TotalPages))
		}
		m.resident = append(m.resident, float64(len(st.Adapters)))
	}
	m.prev, m.prevAt = cur, now
}

func (m *remoteSamples) addReadings(r *result) {
	if m.failed > 0 {
		r.fail("%d state samples failed", m.failed)
	}
	r.add("sched.queue_len_mean", "count", mean(m.queue))
	r.add("sched.queue_peak", "count", float64(m.queuePeak))
	r.add("core.steps_per_sim_s", "1/s", mean(m.stepRate))
	r.add("core.batch_mean", "count", mean(m.batchMean))
	r.add("core.batch_fill", "ratio", mean(m.fill))
	r.add("kvcache.free_frac_mean", "ratio", mean(m.kvFree))
	r.add("lora.resident_mean", "count", mean(m.resident))
	r.add("samples", "count", float64(len(m.queue)))
}

// getJSON fetches a sample; the header keeps it out of the RPC counts.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(sampleHeader, "1")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
