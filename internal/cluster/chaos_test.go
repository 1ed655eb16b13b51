package cluster

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"punica/internal/dist"
	"punica/internal/workload"
)

// resultDigest flattens every deterministic observable of a run into one
// string, so two runs can be compared byte-for-byte.
func resultDigest(c *Cluster, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "finished=%d decode=%d prefill=%d makespan=%v throughput=%.6f\n",
		res.Finished, res.DecodeTokens, res.PrefillTokens, res.Makespan, res.Throughput)
	fmt.Fprintf(&b, "migrations=%d evictions=%d wasted=%d stalls=%d adapterEv=%d queuePeak=%d\n",
		res.Migrations, res.Evictions, res.WastedDecodes, res.AdapterStalls,
		res.AdapterEvictions, res.QueuePeak)
	fmt.Fprintf(&b, "failures=%d replacements=%d gpuStalls=%d skipped=%d recovered=%d recomputed=%d\n",
		res.GPUFailures, res.GPUReplacements, res.GPUStalls, res.FaultsSkipped,
		res.RecoveredRequests, res.RecomputedPrefillTokens)
	fmt.Fprintf(&b, "ttft{%s} e2e{%s} recovery{%s}\n",
		res.TimeToFirstToken.Summary(), res.EndToEnd.Summary(), res.RecoveryLatency.Summary())
	for i, f := range res.GPUBusyFraction {
		fmt.Fprintf(&b, "gpu%02d busy=%.6f batchPoints=%d crashed=%v\n",
			i, f, res.BatchSeries[i].Len(), c.gpus[i].drv.Stopped())
	}
	return b.String()
}

// chaosTrace is a fixed mid-weight workload: enough concurrency that a
// crash always lands on live state.
func chaosTrace(n int, seed int64) []workload.Request {
	return shortTrace(dist.Skewed, n, seed)
}

// runChaos executes one seeded chaos run and returns its digest.
func runChaos(t *testing.T, numGPUs int, plan *FaultPlan, n int, seed int64) (*Cluster, *Result) {
	t.Helper()
	c := New(Config{
		NumGPUs:           numGPUs,
		Engine:            punicaEngineConfig(),
		MigrationInterval: 50 * time.Millisecond,
		Faults:            plan,
	})
	res, err := c.Run(chaosTrace(n, seed))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return c, res
}

// TestChaosKillTwoOfEight is the acceptance scenario: a seeded plan
// kills 2 of 8 GPUs mid-trace (one permanently, one with a cold
// replacement) and stalls a third, yet every request finishes via
// re-dispatch, no pinned adapter bytes leak (Run fails the run on any
// leak), and two identical runs produce byte-identical results.
func TestChaosKillTwoOfEight(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 80 * time.Millisecond, GPU: 2, Kind: FaultCrash},
		{At: 130 * time.Millisecond, GPU: 5, Kind: FaultCrashReplace, ReplaceDelay: 200 * time.Millisecond},
		{At: 60 * time.Millisecond, GPU: 6, Kind: FaultStall, Stall: 150 * time.Millisecond},
	}}
	const n = 160
	c, res := runChaos(t, 8, plan, n, 7)
	if res.Finished != n {
		t.Fatalf("finished %d/%d after chaos", res.Finished, n)
	}
	if res.GPUFailures != 2 {
		t.Fatalf("GPUFailures = %d, want 2", res.GPUFailures)
	}
	if res.GPUReplacements != 1 {
		t.Fatalf("GPUReplacements = %d, want 1", res.GPUReplacements)
	}
	if res.GPUStalls != 1 {
		t.Fatalf("GPUStalls = %d, want 1", res.GPUStalls)
	}
	if res.RecoveredRequests == 0 {
		t.Fatal("crashes hit no live requests; trace too light to exercise recovery")
	}
	if res.RecoveryLatency.Count() != int(res.RecoveredRequests) {
		t.Fatalf("recovery latency has %d samples for %d recovered requests",
			res.RecoveryLatency.Count(), res.RecoveredRequests)
	}
	if res.RecomputedPrefillTokens == 0 {
		t.Fatal("no KV context was lost; crash did not interrupt running work")
	}
	if len(res.BatchSeries) != 9 { // 8 original + 1 replacement
		t.Fatalf("batch series tracks %d GPUs, want 9", len(res.BatchSeries))
	}
	// The engine-side leak invariants beyond what Run already enforces.
	for _, r := range c.gpus {
		if r.eng.KV().UsedPages() != 0 {
			t.Fatalf("gpu %s leaked KvCache pages", r.gpu.UUID)
		}
	}

	c2, res2 := runChaos(t, 8, plan, n, 7)
	if d1, d2 := resultDigest(c, res), resultDigest(c2, res2); d1 != d2 {
		t.Fatalf("chaos run is nondeterministic:\n--- run 1\n%s--- run 2\n%s", d1, d2)
	}
}

// TestChaosSixteenGPUs drives a random seeded plan on a 16-GPU fleet:
// high failure rate, every request still finishes, determinism holds.
func TestChaosSixteenGPUs(t *testing.T) {
	plan := RandomFaultPlan(3, 16, 2*time.Second, 3600) // ~1 fault/GPU/sec over the window
	if len(plan.Events) == 0 {
		t.Fatal("fault plan is empty; rate or horizon miscomputed")
	}
	const n = 240
	c, res := runChaos(t, 16, &plan, n, 11)
	if res.Finished != n {
		t.Fatalf("finished %d/%d", res.Finished, n)
	}
	if res.GPUFailures == 0 && res.GPUStalls == 0 {
		t.Fatal("random plan injected nothing")
	}
	c2, res2 := runChaos(t, 16, &plan, n, 11)
	if d1, d2 := resultDigest(c, res), resultDigest(c2, res2); d1 != d2 {
		t.Fatalf("16-GPU chaos run is nondeterministic:\n--- run 1\n%s--- run 2\n%s", d1, d2)
	}
}

// TestRandomFaultPlanDeterministic pins the plan generator itself: same
// arguments, same schedule.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(9, 8, time.Minute, 60)
	b := RandomFaultPlan(9, 8, time.Minute, 60)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if RandomFaultPlan(9, 8, time.Minute, 0).Events != nil {
		t.Fatal("zero rate must produce an empty plan")
	}
}

// TestFailGPUDirect exercises the direct injection entry point: kill one
// of two GPUs by UUID mid-run.
func TestFailGPUDirect(t *testing.T) {
	c := New(Config{NumGPUs: 2, Engine: punicaEngineConfig()})
	c.FailGPU("gpu-01", 50*time.Millisecond)
	const n = 60
	res, err := c.Run(chaosTrace(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != n {
		t.Fatalf("finished %d/%d", res.Finished, n)
	}
	if res.GPUFailures != 1 {
		t.Fatalf("GPUFailures = %d, want 1", res.GPUFailures)
	}
	if !c.gpus[1].drv.Stopped() || c.gpus[0].drv.Stopped() {
		t.Fatal("wrong GPU crashed")
	}
}

// TestChaosWithAutoscale crashes GPUs under elastic provisioning: the
// autoscaler must backfill crashed capacity from standby and the run
// must still finish everything.
func TestChaosWithAutoscale(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 100 * time.Millisecond, GPU: 0, Kind: FaultCrash},
		{At: 300 * time.Millisecond, GPU: 1, Kind: FaultCrash},
	}}
	c := New(Config{
		NumGPUs: 6,
		Engine:  punicaEngineConfig(),
		Faults:  plan,
		Autoscale: &AutoscaleConfig{
			MinGPUs:        2,
			MaxGPUs:        6,
			ProvisionDelay: 30 * time.Millisecond,
			CheckInterval:  20 * time.Millisecond,
		},
	})
	const n = 120
	res, err := c.Run(chaosTrace(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != n {
		t.Fatalf("finished %d/%d", res.Finished, n)
	}
	if res.GPUFailures == 0 {
		t.Fatal("no failures injected")
	}
	as := c.AutoscaleStats()
	if as.Provisions == 0 {
		t.Fatal("autoscaler provisioned nothing despite crashed capacity")
	}
}

// TestChaosProperty: arbitrary small workloads and random fault plans on
// a 4-GPU cluster — every request finishes and nothing leaks, whatever
// the failure schedule.
func TestChaosProperty(t *testing.T) {
	f := func(raw []uint8, planSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		ec := punicaEngineConfig()
		ec.System.MaxBatch = 4
		plan := RandomFaultPlan(int64(planSeed), 4, time.Second, 2400)
		c := New(Config{
			NumGPUs:           4,
			Engine:            ec,
			MigrationInterval: 40 * time.Millisecond,
			Faults:            &plan,
		})
		var reqs []workload.Request
		var want int64
		for i, b := range raw {
			r := workload.Request{
				ID:        int64(i + 1),
				Model:     int64(b % 5),
				PromptLen: int(b)%96 + 1,
				OutputLen: int(b)%24 + 1,
				Arrival:   time.Duration(i) * 3 * time.Millisecond,
			}
			want += int64(r.OutputLen)
			reqs = append(reqs, r)
		}
		res, err := c.Run(reqs)
		if err != nil {
			return false
		}
		if res.Finished != int64(len(reqs)) || res.DecodeTokens != want {
			return false
		}
		for _, r := range c.gpus {
			if r.eng.KV().UsedPages() != 0 {
				return false
			}
			if store := r.eng.Store(); store != nil && store.PinnedBytes() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
