package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"punica/internal/cluster"
	"punica/internal/core"
	"punica/internal/dist"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/workload"
)

// DisaggOptions parameterises the prefill/decode disaggregation
// experiment: the same prefill-heavy trace replays on the same GPU
// count in unified mode (every GPU runs "Prefill steps and Decode steps
// continuously", §5) and in disaggregated mode (a prefill pool feeds a
// decode pool by KV migration), so any difference in decode-side tail
// latency is attributable to removing prefill head-of-line blocking.
type DisaggOptions struct {
	NumGPUs int
	// PrefillGPUs sizes the disaggregated prefill pool; the remaining
	// NumGPUs − PrefillGPUs serve decode.
	PrefillGPUs int
	// Rate is the arrival rate (req/s); Rate×Horizon sizes each trace.
	Rate    float64
	Horizon time.Duration
	Seed    int64

	// Lengths samples the prefill-heavy mix: long prompts (the blocking
	// work) with moderate outputs (the blocked work).
	Lengths workload.Lengths

	// Policy selects the placement policy for both modes.
	Policy string
}

// prefillHeavyLengths is the disaggregation experiment's mix: prompts
// averaging ≈700 tokens (capped near the engine's single-step prefill
// ceiling) against ShareGPT-like outputs. One such prefill occupies a
// unified GPU for tens of milliseconds — several decode steps' worth of
// stall for every other tenant in the batch.
func prefillHeavyLengths() workload.Lengths {
	return workload.Lengths{
		PromptMu: 6.4, PromptSigma: 0.5, PromptMin: 256, PromptMax: 1536,
		OutMu: 4.0, OutSigma: 0.7, OutMin: 8, OutMax: 256,
	}
}

// DefaultDisaggOptions returns an 8-GPU sweep (2 prefill + 6 decode in
// disaggregated mode) that finishes in seconds of wall time.
func DefaultDisaggOptions() DisaggOptions {
	return DisaggOptions{
		NumGPUs:     8,
		PrefillGPUs: 2,
		Rate:        24,
		Horizon:     2 * time.Minute,
		Seed:        42,
		Lengths:     prefillHeavyLengths(),
	}
}

func (o DisaggOptions) withDefaults() DisaggOptions {
	d := DefaultDisaggOptions()
	if o.NumGPUs <= 0 {
		o.NumGPUs = d.NumGPUs
	}
	if o.PrefillGPUs <= 0 || o.PrefillGPUs >= o.NumGPUs {
		o.PrefillGPUs = cluster.DisaggFromRatio(o.NumGPUs, 0.25).PrefillGPUs
	}
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.Horizon <= 0 {
		o.Horizon = d.Horizon
	}
	if o.Lengths == (workload.Lengths{}) {
		o.Lengths = d.Lengths
	}
	return o
}

// DisaggPrefillGPUs translates a -disagg-ratio CLI knob into a prefill
// pool size for numGPUs.
func DisaggPrefillGPUs(numGPUs int, ratio float64) int {
	return cluster.DisaggFromRatio(numGPUs, ratio).PrefillGPUs
}

// DisaggPoint is one (distribution, mode) cell of the comparison.
type DisaggPoint struct {
	Workload string
	Mode     string // "unified" or "P+D" (e.g. "2p+6d")

	Throughput float64
	Finished   int64
	// DecodeP50/P99 are inter-token latency percentiles (seconds) — the
	// §5 head-of-line metric disaggregation attacks.
	DecodeP50 float64
	DecodeP99 float64
	P50TTFT   float64
	P99TTFT   float64

	// Pool utilization (derived from core.Stats.BusyTime): in unified
	// mode both report the fleet mean; split, they expose imbalance.
	PrefillUtil float64
	DecodeUtil  float64

	KVMigrations      int64
	KVMigratedMB      float64
	Fallbacks         int64
	AdapterPrefetches int64
	QueuePeak         int
}

// disaggTrace builds one distribution's prefill-heavy Poisson trace.
func (o DisaggOptions) disaggTrace(kind dist.Kind) []workload.Request {
	gen := workload.NewGenerator(kind, o.Lengths, o.Seed)
	n := int(o.Rate * o.Horizon.Seconds())
	rate := func(time.Duration) float64 { return o.Rate }
	return gen.Poisson(rate, o.Rate, o.Horizon, dist.NumModels(kind, n))
}

func (o DisaggOptions) run(reqs []workload.Request, disagg *cluster.DisaggConfig) (*cluster.Result, error) {
	c := cluster.New(cluster.Config{
		NumGPUs: o.NumGPUs,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		MigrationInterval: 10 * time.Second,
		Policy:            o.Policy,
		Disagg:            disagg,
	})
	return c.Run(reqs)
}

func disaggPoint(workloadName, mode string, res *cluster.Result) DisaggPoint {
	return DisaggPoint{
		Workload:          workloadName,
		Mode:              mode,
		Throughput:        res.Throughput,
		Finished:          res.Finished,
		DecodeP50:         res.InterTokenLatency.Percentile(50),
		DecodeP99:         res.InterTokenLatency.Percentile(99),
		P50TTFT:           res.TimeToFirstToken.Percentile(50),
		P99TTFT:           res.TimeToFirstToken.Percentile(99),
		PrefillUtil:       res.PrefillUtil,
		DecodeUtil:        res.DecodeUtil,
		KVMigrations:      res.KVMigrations,
		KVMigratedMB:      float64(res.KVMigratedBytes) / (1 << 20),
		Fallbacks:         res.KVMigrationFallbacks,
		AdapterPrefetches: res.AdapterPrefetches,
		QueuePeak:         res.QueuePeak,
	}
}

// Disaggregation runs the unified-vs-disaggregated head-to-head over
// the four paper popularity distributions under the prefill-heavy mix:
// each distribution's identical trace replays on NumGPUs unified GPUs
// and on a PrefillGPUs/(NumGPUs−PrefillGPUs) split fleet. Every cell
// asserts the recovery and leak contracts (all requests finish; KV and
// pin accounting checked inside cluster.Run).
func Disaggregation(opts DisaggOptions) ([]DisaggPoint, error) {
	o := opts.withDefaults()
	split := cluster.DisaggConfig{
		PrefillGPUs: o.PrefillGPUs,
		DecodeGPUs:  o.NumGPUs - o.PrefillGPUs,
	}
	splitName := fmt.Sprintf("%dp+%dd", split.PrefillGPUs, split.DecodeGPUs)
	var points []DisaggPoint
	for _, kind := range dist.Kinds {
		// One trace per distribution, shared by both modes: cluster.Run
		// copies request state into its own core.Requests, so the slice
		// is read-only across runs and the equal-trace property is
		// structural.
		reqs := o.disaggTrace(kind)
		n := int64(len(reqs))
		uni, err := o.run(reqs, nil)
		if err != nil {
			return nil, fmt.Errorf("disagg %s unified: %w", kind, err)
		}
		if uni.Finished != n {
			return nil, fmt.Errorf("disagg %s unified finished %d/%d", kind, uni.Finished, n)
		}
		dis, err := o.run(reqs, &split)
		if err != nil {
			return nil, fmt.Errorf("disagg %s split: %w", kind, err)
		}
		if dis.Finished != n {
			return nil, fmt.Errorf("disagg %s split finished %d/%d", kind, dis.Finished, n)
		}
		points = append(points,
			disaggPoint(kind.String(), "unified", uni),
			disaggPoint(kind.String(), splitName, dis))
	}
	return points, nil
}

// FormatDisaggregation renders the head-to-head as a table.
func FormatDisaggregation(points []DisaggPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — prefill/decode disaggregation (prefill-heavy mix, equal GPU count):\n")
	fmt.Fprintf(&b, "decode p50/p99 are inter-token latencies; util columns are per-pool busy fractions\n\n")
	t := newTable("workload", "mode", "tok/s", "decode p50(ms)", "decode p99(ms)",
		"p99 TTFT(s)", "prefill util", "decode util", "kv moves", "moved MB", "fallbacks")
	for _, p := range points {
		t.add(
			p.Workload, p.Mode,
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.1f", 1000*p.DecodeP50),
			fmt.Sprintf("%.1f", 1000*p.DecodeP99),
			fmt.Sprintf("%.2f", p.P99TTFT),
			fmt.Sprintf("%.1f%%", 100*p.PrefillUtil),
			fmt.Sprintf("%.1f%%", 100*p.DecodeUtil),
			fmt.Sprint(p.KVMigrations),
			fmt.Sprintf("%.0f", p.KVMigratedMB),
			fmt.Sprint(p.Fallbacks),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// DisaggregationCSV writes the sweep as CSV, including the per-pool
// utilization columns.
func DisaggregationCSV(out io.Writer, points []DisaggPoint) error {
	w := csv.NewWriter(out)
	rows := [][]string{{"workload", "mode", "throughput_tok_s", "finished",
		"decode_p50_s", "decode_p99_s", "p50_ttft_s", "p99_ttft_s",
		"prefill_util", "decode_util", "kv_migrations", "kv_migrated_mb",
		"kv_fallbacks", "adapter_prefetches", "queue_peak"}}
	for _, p := range points {
		rows = append(rows, []string{
			p.Workload, p.Mode,
			strconv.FormatFloat(p.Throughput, 'f', 1, 64),
			strconv.FormatInt(p.Finished, 10),
			strconv.FormatFloat(p.DecodeP50, 'f', 5, 64),
			strconv.FormatFloat(p.DecodeP99, 'f', 5, 64),
			strconv.FormatFloat(p.P50TTFT, 'f', 4, 64),
			strconv.FormatFloat(p.P99TTFT, 'f', 4, 64),
			strconv.FormatFloat(p.PrefillUtil, 'f', 4, 64),
			strconv.FormatFloat(p.DecodeUtil, 'f', 4, 64),
			strconv.FormatInt(p.KVMigrations, 10),
			strconv.FormatFloat(p.KVMigratedMB, 'f', 1, 64),
			strconv.FormatInt(p.Fallbacks, 10),
			strconv.FormatInt(p.AdapterPrefetches, 10),
			strconv.Itoa(p.QueuePeak),
		})
	}
	return writeAll(w, rows)
}

// DisaggRecords flattens the sweep for punica-bench -json.
func DisaggRecords(points []DisaggPoint) []BenchRecord {
	var recs []BenchRecord
	for _, p := range points {
		recs = append(recs, BenchRecord{
			Experiment: "disagg",
			Name:       fmt.Sprintf("%s/%s", p.Workload, p.Mode),
			Metrics: map[string]float64{
				"throughput_tok_s":   p.Throughput,
				"decode_p50_s":       p.DecodeP50,
				"decode_p99_s":       p.DecodeP99,
				"p50_ttft_s":         p.P50TTFT,
				"p99_ttft_s":         p.P99TTFT,
				"prefill_util":       p.PrefillUtil,
				"decode_util":        p.DecodeUtil,
				"kv_migrations":      float64(p.KVMigrations),
				"kv_migrated_mb":     p.KVMigratedMB,
				"kv_fallbacks":       float64(p.Fallbacks),
				"adapter_prefetches": float64(p.AdapterPrefetches),
				"queue_peak":         float64(p.QueuePeak),
			},
		})
	}
	return recs
}
