package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"punica/internal/cluster"
	"punica/internal/dist"
	"punica/internal/sched"
	"punica/internal/serve"
	"punica/internal/workload"
)

// live-serve-saturate: a closed loop keeping satOutstanding streams open,
// twice the fleet's batch slots, against the in-process server.
const (
	satGPUs        = 2
	satOutstanding = 2 * satGPUs * liveMaxBatch
	// calibRequests sizes the saturating calibration batch. It is larger
	// than experiments.Overload's 300, whose capacity moves by a sixth
	// between seeds with the lengths of the few requests that finish last.
	calibRequests = 2000
	// satPoolPerSecond bounds the requests one measured second can use,
	// well above what the deployment completes.
	satPoolPerSecond = 1500
)

// satPool draws the request mix: ShareGPT lengths, and Distinct
// adapters, so every request loads its own adapter.
func satPool(seed int64, seconds time.Duration) []workload.Request {
	gen := workload.NewGenerator(dist.Distinct, workload.ShareGPTLengths(), seed)
	return gen.Batch(int(seconds.Seconds()*satPoolPerSecond) + calibRequests)
}

// calibration is the outcome of the capacity calibration. Its
// cluster.Run is also where this workload measures the simulator layers.
type calibration struct {
	capacity   float64 // requests per simulated second
	events     int64
	eventsPerS float64 // events executed per wall second
	sched      sched.Stats
	busyFrac   float64
}

// calibrate measures the simulator's capacity for the same deployment
// and request mix: the completion rate of a saturating batch, the method
// of experiments.Overload.
func calibrate(pool []workload.Request) (calibration, error) {
	c := cluster.New(cluster.Config{NumGPUs: satGPUs, Engine: liveEngine()})
	t0 := time.Now()
	res, err := c.Run(pool[:calibRequests])
	wall := time.Since(t0)
	if err != nil {
		return calibration{}, fmt.Errorf("calibration: %w", err)
	}
	if res.Finished != calibRequests || res.Makespan <= 0 {
		return calibration{}, fmt.Errorf("calibration: %d of %d finished over %v", res.Finished, calibRequests, res.Makespan)
	}
	events := c.Clock().Executed()
	return calibration{
		capacity:   float64(res.Finished) / res.Makespan.Seconds(),
		events:     events,
		eventsPerS: float64(events) / wall.Seconds(),
		sched:      c.Scheduler().Stats(),
		busyFrac:   mean(res.GPUBusyFraction),
	}, nil
}

type satStack struct {
	srv    *serve.Server
	hs     *server
	client *client
}

func startSaturate(ctx context.Context, tr *tracer) (*satStack, error) {
	s := &satStack{srv: serve.New(serve.Config{
		NumGPUs: satGPUs,
		Engine:  liveEngine(),
		Speedup: liveSpeedup,
		Policy:  "paper",
	})}
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = tr.wrap("serve", h)
	}
	var err error
	if s.hs, err = startServer(h); err != nil {
		s.close()
		return nil, err
	}
	s.client = newClient(s.hs.url, clientConns())
	if err := s.client.warm(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *satStack) close() {
	if s.client != nil {
		s.client.close()
	}
	if s.hs != nil {
		s.hs.close()
	}
	s.srv.Close()
}

func runLiveSaturate(seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		stack    *satStack
		pool     []workload.Request
		cal      calibration
		calRates []float64
		setupDur []float64
	)
	for i := range setups {
		t0 := time.Now()
		pool = satPool(seed, seconds)
		var err error
		if cal, err = calibrate(pool); err != nil {
			return nil, err
		}
		calRates = append(calRates, cal.eventsPerS)
		st, err := startSaturate(ctx, tr)
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
	pool = pool[calibRequests:]

	var smp *serveSamples
	if tr != nil {
		smp = &serveSamples{}
		tr.start()
	}
	var (
		run       liveRun
		wg        sync.WaitGroup
		next      atomic.Int64
		exhausted atomic.Bool
	)
	ph := startPhase()
	var stopSampler func()
	if smp != nil {
		s := startSampler(samplePeriod, func() { smp.sample(stack.srv) })
		stopSampler = s.stop
	}
	start := time.Now()
	deadline := start.Add(seconds)
	for range satOutstanding {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(pool)) {
					exhausted.Store(true)
					return
				}
				o := &outcome{due: time.Now()}
				run.add(o)
				stack.client.generate(ctx, pool[i], o)
			}
		}()
	}
	drainErr := waitDrain(&wg, cancel, deadline)
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
	if exhausted.Load() {
		r.fail("the request pool ran out before the measuring time ended")
	}
	r.add("setup_s", "s", median(setupDur))
	run.summarize(r, start, seconds, cost)
	reqRate, _ := r.get("req_per_s")
	r.add("calib.capacity_rps", "1/s", cal.capacity)
	r.add("capacity_ratio", "ratio", reqRate/liveSpeedup/cal.capacity)
	r.add("load.client_conns", "count", float64(stack.hs.conns.Load()))
	if tr == nil {
		return r, nil
	}

	ok := float64(len(run.outcomes) - r.failed)
	gen := tr.stats("serve.generate")
	r.addPct("serve.first_byte_ms_p50", "ms", percentile(gen.firstMS, 50))
	r.addPct("serve.first_byte_ms_p99", "ms", percentile(gen.firstMS, 99))
	if gen.lines > 0 {
		r.add("serve.bytes_per_token", "B", float64(gen.bytes)/float64(gen.lines))
	}
	smp.addReadings(r)
	r.add("sim.events", "count", float64(cal.events))
	r.add("sim.events_per_s", "1/s", median(calRates))
	r.add("sched.dispatched", "count", float64(cal.sched.Dispatched))
	r.add("sched.queued", "count", float64(cal.sched.Queued))
	r.add("sched.adapter_stalls", "count", float64(cal.sched.AdapterStalls))
	r.add("core.busy_frac_mean", "ratio", cal.busyFrac)
	tr.addClientSpans(run.outcomes)
	tr.addCPUShares(r)
	addGoReadings(r, cost, ok)
	tr.addSpanReadings(r, spanPath("live-serve-saturate", seed))
	return r, nil
}

// serveSamples are the server snapshots sampled during a traced
// live-serve-saturate run.
type serveSamples struct {
	queue     []float64
	queuePeak int
	prev      *serve.Stats
	// Per interval and GPU: steps per simulated second and tokens per
	// step; per sample and GPU: batch fill, free KvCache share and
	// resident adapters.
	stepRate, batchMean, fill, kvFree, resident []float64
}

func (m *serveSamples) sample(srv *serve.Server) {
	st := srv.Snapshot()
	m.queue = append(m.queue, float64(st.QueueLen))
	m.queuePeak = max(m.queuePeak, st.QueuePeak)
	if p := m.prev; p != nil && st.SimTime > p.SimTime && len(p.GPUs) == len(st.GPUs) {
		dt := st.SimTime - p.SimTime
		for i, g := range st.GPUs {
			dSteps := float64(g.Steps - p.GPUs[i].Steps)
			m.stepRate = append(m.stepRate, dSteps/dt)
			if dSteps > 0 {
				m.batchMean = append(m.batchMean, float64(g.Tokens-p.GPUs[i].Tokens)/dSteps)
			}
		}
	}
	for _, g := range st.GPUs {
		m.fill = append(m.fill, float64(g.ActiveBatch)/liveMaxBatch)
		if g.TotalKVPages > 0 {
			m.kvFree = append(m.kvFree, float64(g.FreeKVPages)/float64(g.TotalKVPages))
		}
		m.resident = append(m.resident, float64(g.Adapters))
	}
	m.prev = &st
}

func (m *serveSamples) addReadings(r *result) {
	r.add("sched.queue_len_mean", "count", mean(m.queue))
	r.add("sched.queue_peak", "count", float64(m.queuePeak))
	r.add("core.steps_per_sim_s", "1/s", mean(m.stepRate))
	r.add("core.batch_mean", "count", mean(m.batchMean))
	r.add("core.batch_fill", "ratio", mean(m.fill))
	r.add("kvcache.free_frac_mean", "ratio", mean(m.kvFree))
	r.add("lora.resident_mean", "count", mean(m.resident))
	r.add("samples", "count", float64(len(m.queue)))
}
