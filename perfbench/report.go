package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run of a workload listed in
// BENCHMARK.json reports. The p99s of TTFT and TPOT, which are not steady
// from run to run on a small shared machine, and SLO attainment and
// capacity ratio, which exist on one workload each, are printed in the
// report under their own names instead (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"cpu_ms_per_req", "ms"},
	{"req_per_s", "1/s"},
	{"tokens_per_s", "1/s"},
	{"ttft_p50_ms", "ms"},
	{"tpot_p50_ms", "ms"},
}

// cpuBuckets are the packages the CPU profile's self time is split by.
var cpuBuckets = []string{
	"cluster", "sched", "core", "sgmv", "lora", "kvcache", "sim", "metrics",
	"serve", "remote", "nethttp", "json", "runtime", "other",
}

// perLayer are the metrics a traced run reports in its result line. A
// layer the workload does not run, or cannot observe, reads 0. sim-fleet
// prints more (adapter tiers, consolidation, cluster and sim CPU shares)
// in its report.
var perLayer = []metricSpec{
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"remote.state.calls_per_req", "count"},
	{"remote.state.not_modified_ratio", "ratio"},
	{"remote.state.p50_us", "us"},
	{"remote.state.p99_us", "us"},
	{"remote.enqueue.p50_us", "us"},
	{"remote.enqueue.p99_us", "us"},
	{"remote.other.calls_per_req", "count"},
	{"remote.rpc_bytes_per_req", "B"},
	{"remote.stream.first_write_ms", "ms"},
	{"remote.stream.bytes_per_token", "B"},
	{"remote.frontend.first_byte_ms", "ms"},
	{"remote.frontend.proxy_ms", "ms"},
	{"serve.first_byte_ms_p50", "ms"},
	{"serve.first_byte_ms_p99", "ms"},
	{"serve.bytes_per_token", "B"},
	{"sched.queue_len_mean", "count"},
	{"sched.queue_peak", "count"},
	{"sched.dispatched", "count"},
	{"sched.queued", "count"},
	{"sched.adapter_stalls", "count"},
	{"core.steps_per_sim_s", "1/s"},
	{"core.batch_fill", "ratio"},
	{"core.batch_mean", "count"},
	{"core.busy_frac_mean", "ratio"},
	{"kvcache.free_frac_mean", "ratio"},
	{"lora.resident_mean", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"cpu.sched_share", "ratio"},
	{"cpu.core_share", "ratio"},
	{"cpu.sgmv_share", "ratio"},
	{"cpu.lora_share", "ratio"},
	{"cpu.kvcache_share", "ratio"},
	{"cpu.metrics_share", "ratio"},
	{"cpu.serve_share", "ratio"},
	{"cpu.remote_share", "ratio"},
	{"cpu.nethttp_share", "ratio"},
	{"cpu.json_share", "ratio"},
	{"cpu.runtime_share", "ratio"},
	{"cpu.other_share", "ratio"},
	{"go.allocs_per_req", "count"},
	{"go.bytes_per_req", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"span.client.self_ms_p50", "ms"},
	{"span.server.self_ms_p50", "ms"},
	{"span.runner.self_ms_p50", "ms"},
	{"trace.overhead_cpu_ms_per_req", "ms"},
	{"trace.overhead_req_per_s", "1/s"},
	{"trace.overhead_ttft_p50_ms", "ms"},
}

// reading is one reported value; N is the sample count behind a
// percentile (0 for anything else).
type reading struct {
	name, unit string
	value      float64
	n          int
	// thin marks a percentile with fewer than ten samples beyond it.
	thin bool
}

// result is everything one measured phase of a workload produced.
type result struct {
	attempted, failed int
	// problems lists the correctness checks that failed, one line each.
	problems []string
	readings []reading
}

func (r *result) add(name, unit string, v float64) {
	r.readings = append(r.readings, reading{name: name, unit: unit, value: v})
}

// addPct records a percentile with its sample count.
func (r *result) addPct(name, unit string, q pct) {
	r.readings = append(r.readings, reading{name: name, unit: unit, value: q.Value, n: q.N, thin: !q.supported()})
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (float64, bool) {
	for _, x := range r.readings {
		if x.name == name {
			return x.value, true
		}
	}
	return 0, false
}

// printReadings writes one line per reading, with unit and sample count.
func printReadings(w io.Writer, title string, r *result) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, x := range r.readings {
		line := fmt.Sprintf("%-34s %14.6g %-6s", x.name, x.value, x.unit)
		if x.n > 0 {
			line += fmt.Sprintf(" n=%d", x.n)
		}
		if x.thin {
			line += " (fewer than 10 samples beyond)"
		}
		fmt.Fprintln(w, line)
	}
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// pick returns the listed metrics from r, failing on one that is missing
// or not a finite number.
func pick(r *result, specs []metricSpec) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		i := slices.IndexFunc(r.readings, func(x reading) bool { return x.name == s.name })
		if i < 0 {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		v := r.readings[i].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	return out, nil
}

func writeResultLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
