// Command perfbench is the repository's benchmark. It runs one named
// workload against the program from inside one process, checks every
// output, prints each metric with its unit and sample count, and ends
// with one JSON result line:
//
//	bash perfbench/run.sh --workload live-remote-poisson --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it measures the workload twice, untraced and then with
// handler taps, state sampling, spans and a CPU profile, and reports the
// per-layer metrics and the tracing overhead. See README.md.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloadSpec is one named set of inputs.
type workloadSpec struct {
	// run measures the workload; a nil tracer runs it untraced.
	run func(seed int64, seconds time.Duration, tr *tracer) (*result, error)
	// endToEnd are the metrics of its untraced result line.
	endToEnd []metricSpec
}

// workloads are the benchmark's workloads. BENCHMARK.json lists the live
// ones. sim-fleet is CPU-bound, and on a shared 2-vCPU machine its speed
// drifts with its neighbours by more than the largest bound BENCHMARK.json
// may set (see README.md), so it is run by hand, and its result line
// carries only the metrics it has: it has no wall-clock TTFT or TPOT.
var workloads = map[string]workloadSpec{
	"sim-fleet":           {runSimFleet, endToEnd[:5]},
	"live-remote-poisson": {runLiveRemote, endToEnd},
	"live-serve-saturate": {runLiveSaturate, endToEnd},
}

// setups is how many times each workload sets up; setup_s is the
// median, so one slow set-up does not move it.
const setups = 9

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sim-fleet, live-remote-poisson or live-serve-saturate")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run that reports the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n",
			strings.Join(slices.Sorted(maps.Keys(workloads)), ", "))
		return 2
	}
	// One process on one P. With two, the live servers' sub-millisecond
	// pacing sleeps end whenever the other P happens to poll its timers
	// and idle Ps spin for work, so throughput and CPU per request drift
	// from run to run (see README.md).
	runtime.GOMAXPROCS(1)
	dur := time.Duration(*seconds) * time.Second

	res, err := w.run(*seed, dur, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d GOMAXPROCS=%d\n", *name, *seed, *seconds, runtime.GOMAXPROCS(0))
	printReadings(os.Stdout, "end to end", res)
	line := resultLine{Attempted: res.attempted, Failed: res.failed}
	problems := res.problems
	specs := w.endToEnd
	out := res
	if *trace == 1 {
		tres, err := w.run(*seed, dur, newTracer())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		addOverhead(tres, res)
		printReadings(os.Stdout, "traced run", tres)
		line.Attempted += tres.attempted
		line.Failed += tres.failed
		problems = append(problems, tres.problems...)
		specs, out = perLayer, tres
		// A layer the workload does not run reads 0.
		for _, s := range perLayer {
			if _, ok := tres.get(s.name); !ok {
				tres.add(s.name, s.unit, 0)
			}
		}
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if line.Metrics, err = pick(out, specs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line.Correct = len(problems) == 0 && line.Failed == 0 && line.Attempted > 0
	if err := writeResultLine(os.Stdout, line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// addOverhead reports what tracing cost: the traced phase's reading
// minus the untraced one.
func addOverhead(traced, plain *result) {
	for _, m := range []metricSpec{{"cpu_ms_per_req", "ms"}, {"req_per_s", "1/s"}, {"ttft_p50_ms", "ms"}} {
		t, ok1 := traced.get(m.name)
		p, ok2 := plain.get(m.name)
		if ok1 && ok2 {
			traced.add("trace.overhead_"+m.name, m.unit, t-p)
		}
	}
}
