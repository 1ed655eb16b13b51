package main

import (
	"fmt"
	"runtime"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/workload"
)

// The Fig. 13 deployment: 16 GPUs under a one-hour trapezoid peaking at
// 11 req/s, with a staged adapter hierarchy under every GPU's HBM store.
const (
	simGPUs      = 16
	simPeak      = 11
	simRotations = 4
	simTiers     = "ssd:64GiB@2GiB/s,ram:16GiB@8GiB/s+20us"
)

var simProfile = workload.Trapezoid{
	Peak: simPeak, RampUp: 25 * time.Minute, Hold: 10 * time.Minute, RampDown: 25 * time.Minute,
}

// simTrace draws the sim-fleet trace: Poisson arrivals over the
// trapezoid, ClusterLengths, and Zipf-1.5 popularity whose hot set
// rotates simRotations times over the hour.
func simTrace(seed int64) []workload.Request {
	horizon := simProfile.Horizon()
	n := dist.NumModels(dist.Skewed, int(simPeak*horizon.Seconds()/2))
	phases := make([]dist.Phase, simRotations)
	for i := range phases {
		phases[i] = dist.Phase{
			Length:    horizon / simRotations,
			Kind:      dist.Zipf,
			Alpha:     dist.DefaultZipfAlpha,
			NumModels: n,
			Offset:    i * n,
		}
	}
	gen := workload.NewGenerator(dist.Skewed, workload.ClusterLengths(), seed)
	return gen.PoissonMix(simProfile.Rate, simPeak, horizon, dist.Mix{Phases: phases})
}

func simConfig() (cluster.Config, error) {
	tiers, err := lora.ParseTierSpec(simTiers)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		NumGPUs: simGPUs,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
		Tiers:             tiers,
	}, nil
}

// simDigest is what must repeat exactly when the same trace is simulated
// again.
type simDigest struct {
	finished, decode, prefill, migrations, evictions, events int64
	makespan                                                 time.Duration
}

// runSimFleet simulates the seed's trace with cluster.Run back to back,
// at least once, as often as fits in the measuring time.
func runSimFleet(seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	var (
		trace    []workload.Request
		cfg      cluster.Config
		setupDur []float64
	)
	for range setups {
		t0 := time.Now()
		trace = simTrace(seed)
		var err error
		if cfg, err = simConfig(); err != nil {
			return nil, err
		}
		// Building the fleet is set-up work. A cluster runs once, so each
		// repetition below builds its own, outside its timed run.
		_ = cluster.New(cfg)
		setupDur = append(setupDur, time.Since(t0).Seconds())
	}
	if err := checkTrace("sim-fleet", len(trace)); err != nil {
		return nil, err
	}
	var wantTokens int64
	for _, r := range trace {
		wantTokens += int64(r.OutputLen)
	}

	r := &result{}
	var (
		reqRates, tokRates, eventRates []float64
		runCPU                         time.Duration
		finished                       int64
		first                          *simDigest
		last                           *cluster.Result
		lastC                          *cluster.Cluster
	)
	if tr != nil {
		tr.start()
	}
	ph := startPhase()
	start := time.Now()
	var repDur time.Duration
	for rep := 0; rep == 0 || time.Since(start)+repDur <= seconds; rep++ {
		c := cluster.New(cfg)
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		res, err := c.Run(trace)
		t1 := time.Now()
		runCPU += cpuTime() - cpu0
		repDur = t1.Sub(t0)
		if tr != nil {
			tr.record(span{Trace: int64(rep + 1), Name: "cluster.Run", Start: t0, End: t1})
		}
		r.attempted += len(trace)
		if err != nil {
			r.failed += len(trace)
			r.fail("repetition %d: cluster.Run: %v", rep, err)
			continue
		}
		bad := false
		if res.Finished != int64(len(trace)) {
			r.fail("repetition %d: finished %d of %d requests", rep, res.Finished, len(trace))
			bad = true
		}
		if res.DecodeTokens != wantTokens {
			r.fail("repetition %d: decoded %d tokens, the trace asks for %d", rep, res.DecodeTokens, wantTokens)
			bad = true
		}
		d := simDigest{res.Finished, res.DecodeTokens, res.PrefillTokens, res.Migrations,
			res.Evictions, c.Clock().Executed(), res.Makespan}
		if first == nil {
			first = &d
		} else if d != *first {
			r.fail("repetition %d: result differs from repetition 0 on the same trace: %+v vs %+v", rep, d, *first)
			bad = true
		}
		if bad {
			r.failed += len(trace)
			continue
		}
		wall := t1.Sub(t0).Seconds()
		finished += res.Finished
		reqRates = append(reqRates, float64(res.Finished)/wall)
		tokRates = append(tokRates, float64(res.DecodeTokens)/wall)
		eventRates = append(eventRates, float64(c.Clock().Executed())/wall)
		last, lastC = res, c
	}
	cost := ph.stop()
	if tr != nil {
		tr.stop()
	}
	if last == nil {
		return r, nil
	}

	r.add("setup_s", "s", median(setupDur))
	r.add("heap_peak_mb", "MiB", cost.heapPeakMB)
	r.add("cpu_ms_per_req", "ms", float64(runCPU.Microseconds())/1e3/float64(finished))
	r.add("req_per_s", "1/s", median(reqRates))
	r.add("tokens_per_s", "1/s", median(tokRates))
	r.add("fail_share", "ratio", float64(r.failed)/float64(r.attempted))
	r.add("sim_req_per_s", "1/s", median(reqRates))
	r.add("sim_tok_per_s", "1/s", last.Throughput)
	r.addPct("sim_ttft_p99_s", "s", pct{99, last.TimeToFirstToken.Percentile(99), last.TimeToFirstToken.Count()})
	r.add("repetitions", "count", float64(len(reqRates)))
	if tr == nil {
		return r, nil
	}

	st := lastC.Scheduler().Stats()
	r.add("sched.dispatched", "count", float64(st.Dispatched))
	r.add("sched.queued", "count", float64(st.Queued))
	r.add("sched.migrations", "count", float64(st.Migrations))
	r.add("sched.adapter_stalls", "count", float64(st.AdapterStalls))
	r.add("sched.queue_peak", "count", float64(last.QueuePeak))
	r.add("core.busy_frac_mean", "ratio", mean(last.GPUBusyFraction))
	r.add("core.evictions", "count", float64(last.Evictions))
	addTierReadings(r, last.TierStats)
	r.add("lora.cold_start_p99_s", "s", last.ColdStart.Percentile(99))
	r.add("sim.events", "count", float64(lastC.Clock().Executed()))
	r.add("sim.events_per_s", "1/s", median(eventRates))
	addGoReadings(r, cost, float64(finished))
	tr.addCPUShares(r)
	tr.addSpanReadings(r, spanPath("sim-fleet", seed))
	return r, nil
}

// addTierReadings reports the adapter tiers' counters and the HBM hit
// ratio.
func addTierReadings(r *result, stats []lora.TierStats) {
	for _, ts := range stats {
		r.add("lora."+ts.Tier+".hits", "count", float64(ts.Hits))
		r.add("lora."+ts.Tier+".misses", "count", float64(ts.Misses))
		r.add("lora."+ts.Tier+".promotions", "count", float64(ts.Promotions))
		if ts.Tier == "hbm" && ts.Hits+ts.Misses > 0 {
			r.add("lora.hbm_hit_ratio", "ratio", float64(ts.Hits)/float64(ts.Hits+ts.Misses))
		}
	}
}

func addGoReadings(r *result, c phaseCost, reqs float64) {
	if reqs <= 0 {
		return
	}
	r.add("go.allocs_per_req", "count", float64(c.allocs)/reqs)
	r.add("go.bytes_per_req", "B", float64(c.allocBytes)/reqs)
	r.add("go.gc_cpu_frac", "ratio", c.gcCPUFrac)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkTrace guards against a generator change that empties a workload.
func checkTrace(name string, n int) error {
	if n == 0 {
		return fmt.Errorf("%s: the generator produced no requests", name)
	}
	return nil
}
