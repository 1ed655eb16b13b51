package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/sched"
	"punica/internal/workload"
)

// FaultsOptions parameterises the availability experiment: the same
// Poisson trace replays under every (placement policy × failure rate)
// cell, with failures drawn as a seeded Poisson process of crash,
// crash-and-replace, and transient-stall events. Rate 0 is the
// fault-free baseline each policy's degradation is measured against.
type FaultsOptions struct {
	NumGPUs int
	// Rate is the arrival rate (req/s); Rate×Horizon sizes the trace.
	Rate    float64
	Horizon time.Duration
	Seed    int64

	// Policies to compare (default: all built-ins).
	Policies []string
	// FaultRates are the injected failure rates in faults per GPU-hour.
	// 0 must be present (or is prepended) to anchor the baseline.
	FaultRates []float64
}

// DefaultFaultsOptions returns an 8-GPU sweep that finishes in seconds
// of wall time while still injecting several failures per cell.
func DefaultFaultsOptions() FaultsOptions {
	return FaultsOptions{
		NumGPUs:    8,
		Rate:       12,
		Horizon:    3 * time.Minute,
		Seed:       42,
		Policies:   append([]string(nil), sched.PolicyNames...),
		FaultRates: []float64{0, 30, 90},
	}
}

func (o FaultsOptions) withDefaults() FaultsOptions {
	d := DefaultFaultsOptions()
	if o.NumGPUs <= 0 {
		o.NumGPUs = d.NumGPUs
	}
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if len(o.Policies) == 0 {
		o.Policies = d.Policies
	}
	if len(o.FaultRates) == 0 {
		o.FaultRates = d.FaultRates
	}
	hasZero := false
	for _, r := range o.FaultRates {
		if r == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		o.FaultRates = append([]float64{0}, o.FaultRates...)
	}
	// The fault-free baseline must run before the cells measured
	// against it: sort ascending so rate 0 is always first.
	sort.Float64s(o.FaultRates)
	return o
}

// FaultsPoint is one (policy, failure-rate) cell.
type FaultsPoint struct {
	Policy    string
	FaultRate float64 // faults per GPU-hour

	Failures     int64
	Replacements int64
	Stalls       int64
	Recovered    int64
	// RecomputedPrefillTokens is the KvCache context destroyed by
	// crashes — the recomputation bill recovery pays.
	RecomputedPrefillTokens int64

	Finished   int64
	Throughput float64
	// ThroughputFrac is Throughput over the same policy's fault-free
	// baseline (1.0 at rate 0).
	ThroughputFrac float64
	P50TTFT        float64 // seconds
	P99TTFT        float64
	// P99TTFTDelta is P99TTFT minus the fault-free baseline's (seconds).
	P99TTFTDelta float64
	// RecoveryP50/P99 are failure→re-placement latencies (seconds).
	RecoveryP50 float64
	RecoveryP99 float64
}

// faultsTrace builds the shared request stream: constant-rate Poisson
// arrivals with the paper's Skewed popularity.
func faultsTrace(o FaultsOptions) []workload.Request {
	gen := workload.NewGenerator(dist.Skewed, workload.ShareGPTLengths(), o.Seed)
	n := int(o.Rate * o.Horizon.Seconds())
	rate := func(time.Duration) float64 { return o.Rate }
	return gen.Poisson(rate, o.Rate, o.Horizon, dist.NumModels(dist.Skewed, n))
}

// Faults runs the availability sweep: for each policy, the identical
// trace under each failure rate, reporting throughput and p99-TTFT
// degradation versus that policy's fault-free run. Every cell asserts
// the recovery contract — all requests finish, recovered or not.
func Faults(opts FaultsOptions) ([]FaultsPoint, error) {
	o := opts.withDefaults()
	var out []FaultsPoint
	for _, policy := range o.Policies {
		var baseThroughput, baseP99 float64
		for _, rate := range o.FaultRates {
			reqs := faultsTrace(o)
			var plan *cluster.FaultPlan
			if rate > 0 {
				p := cluster.RandomFaultPlan(o.Seed+int64(rate*1000), o.NumGPUs, o.Horizon, rate)
				plan = &p
			}
			c := cluster.New(cluster.Config{
				NumGPUs: o.NumGPUs,
				Engine: core.Config{
					System: core.PunicaSystem(),
					GPU:    hw.A100(),
					Model:  models.Llama2_7B(),
					Rank:   models.DefaultLoRARank,
				},
				MigrationInterval: 10 * time.Second,
				Policy:            policy,
				Faults:            plan,
			})
			res, err := c.Run(reqs)
			if err != nil {
				return nil, fmt.Errorf("faults %s@%.0f: %w", policy, rate, err)
			}
			if res.Finished != int64(len(reqs)) {
				return nil, fmt.Errorf("faults %s@%.0f: finished %d/%d — recovery lost requests",
					policy, rate, res.Finished, len(reqs))
			}
			p := FaultsPoint{
				Policy:                  policyLabel(policy),
				FaultRate:               rate,
				Failures:                res.GPUFailures,
				Replacements:            res.GPUReplacements,
				Stalls:                  res.GPUStalls,
				Recovered:               res.RecoveredRequests,
				RecomputedPrefillTokens: res.RecomputedPrefillTokens,
				Finished:                res.Finished,
				Throughput:              res.Throughput,
				P50TTFT:                 res.TimeToFirstToken.Percentile(50),
				P99TTFT:                 res.TimeToFirstToken.Percentile(99),
				RecoveryP50:             res.RecoveryLatency.Percentile(50),
				RecoveryP99:             res.RecoveryLatency.Percentile(99),
			}
			if rate == 0 {
				baseThroughput, baseP99 = p.Throughput, p.P99TTFT
			}
			if baseThroughput > 0 {
				p.ThroughputFrac = p.Throughput / baseThroughput
			}
			p.P99TTFTDelta = p.P99TTFT - baseP99
			out = append(out, p)
		}
	}
	return out, nil
}

func policyLabel(name string) string {
	if name == "" {
		return "paper"
	}
	return name
}

// FormatFaults renders the sweep as a table.
func FormatFaults(points []FaultsPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — availability under GPU failures (crash / crash+replace / stall):\n")
	fmt.Fprintf(&b, "degradation is vs. the same policy at fault rate 0\n\n")
	t := newTable("policy", "faults/GPU-h", "fail", "repl", "stall", "recov",
		"recompute-tok", "tok/s", "vs base", "p99 TTFT(s)", "Δp99(s)", "recov p99(s)")
	for _, p := range points {
		t.add(
			p.Policy,
			fmt.Sprintf("%.0f", p.FaultRate),
			fmt.Sprint(p.Failures),
			fmt.Sprint(p.Replacements),
			fmt.Sprint(p.Stalls),
			fmt.Sprint(p.Recovered),
			fmt.Sprint(p.RecomputedPrefillTokens),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.2f", p.ThroughputFrac),
			fmt.Sprintf("%.2f", p.P99TTFT),
			fmt.Sprintf("%+.2f", p.P99TTFTDelta),
			fmt.Sprintf("%.3f", p.RecoveryP99),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// FaultsCSV writes the sweep as CSV.
func FaultsCSV(out io.Writer, points []FaultsPoint) error {
	w := csv.NewWriter(out)
	rows := [][]string{{"policy", "faults_per_gpu_hour", "failures", "replacements",
		"stalls", "recovered", "recomputed_prefill_tokens", "finished",
		"throughput_tok_s", "throughput_frac", "p50_ttft_s", "p99_ttft_s",
		"p99_ttft_delta_s", "recovery_p50_s", "recovery_p99_s"}}
	for _, p := range points {
		rows = append(rows, []string{
			p.Policy,
			strconv.FormatFloat(p.FaultRate, 'f', 1, 64),
			strconv.FormatInt(p.Failures, 10),
			strconv.FormatInt(p.Replacements, 10),
			strconv.FormatInt(p.Stalls, 10),
			strconv.FormatInt(p.Recovered, 10),
			strconv.FormatInt(p.RecomputedPrefillTokens, 10),
			strconv.FormatInt(p.Finished, 10),
			strconv.FormatFloat(p.Throughput, 'f', 1, 64),
			strconv.FormatFloat(p.ThroughputFrac, 'f', 4, 64),
			strconv.FormatFloat(p.P50TTFT, 'f', 4, 64),
			strconv.FormatFloat(p.P99TTFT, 'f', 4, 64),
			strconv.FormatFloat(p.P99TTFTDelta, 'f', 4, 64),
			strconv.FormatFloat(p.RecoveryP50, 'f', 4, 64),
			strconv.FormatFloat(p.RecoveryP99, 'f', 4, 64),
		})
	}
	return writeAll(w, rows)
}
