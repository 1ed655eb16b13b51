package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestOneTokenStreamHasNoTPOT(t *testing.T) {
	o := outcome{ok: true, tokens: 1, due: at(0), sent: at(0), first: at(5), last: at(5)}
	if gap, has := o.tpot(); has {
		t.Fatalf("1-token stream reported TPOT %v", gap)
	}
	o.tokens, o.last = 3, at(9)
	if gap, has := o.tpot(); !has || gap != 2*time.Millisecond {
		t.Fatalf("3 tokens over 4 ms: TPOT %v, %v; want 2ms", gap, has)
	}
}

func TestFailedRequestMissesSLO(t *testing.T) {
	fast := outcome{ok: true, tokens: 2, due: at(0), first: at(1), last: at(2)}
	if !fast.meetsSLO(10*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("a fast correct request missed the SLO")
	}
	refused := fast
	refused.ok, refused.err = false, "HTTP 429: queue_full"
	if refused.meetsSLO(10*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("a refused request met the SLO")
	}
	// A one-token request has no TPOT: only its TTFT counts.
	single := outcome{ok: true, tokens: 1, due: at(0), first: at(1), last: at(1)}
	if !single.meetsSLO(10*time.Millisecond, 0) {
		t.Fatal("a one-token request was judged on a TPOT it does not have")
	}
	late := fast
	late.first = at(11)
	if late.meetsSLO(10*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("TTFT is timed from the due time, so a late first token misses")
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := percentile(xs, 50); q.Value != 3 || q.N != 5 {
		t.Fatalf("p50 of 1..5 = %+v, want 3 over 5 samples", q)
	}
	if q := percentile(nil, 99); q.N != 0 {
		t.Fatalf("empty sample reported %d samples", q.N)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	q := percentile(big, 99)
	if q.Value != 990 || q.N != 1000 || !q.supported() {
		t.Fatalf("p99 of 1..1000 = %+v (supported %v)", q, q.supported())
	}
	if q := percentile(big[:999], 99); q.supported() {
		t.Fatal("p99 of 999 samples has fewer than ten samples beyond it")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(40)},
		{Start: at(20), End: at(50)},  // overlaps the first: union is 10..50
		{Start: at(90), End: at(120)}, // clipped to the parent: 90..100
		{Start: at(-5), End: at(0)},   // outside the parent
		{Start: at(60), End: at(60)},  // empty
		{Start: at(45), End: at(50)},  // inside the union already
	}
	if got := selfTime(parent, children); got != 50*time.Millisecond {
		t.Fatalf("self time %v, want 50ms (100 - union 40 - clipped 10)", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children %v, want 100ms", got)
	}
}

func TestReadStreamChecks(t *testing.T) {
	good := `{"request_id":7,"index":0,"eos":false}` + "\n" +
		`{"request_id":7,"index":1,"eos":false}` + "\n" +
		`{"request_id":7,"index":2,"eos":true}` + "\n"
	var o outcome
	if err := readStream(strings.NewReader(good), 3, &o); err != nil || o.tokens != 3 {
		t.Fatalf("good stream: %v, %d tokens", err, o.tokens)
	}
	bad := map[string]string{
		"duplicate":   `{"request_id":7,"index":0}` + "\n" + `{"request_id":7,"index":0}` + "\n",
		"gap":         `{"request_id":7,"index":0}` + "\n" + `{"request_id":7,"index":2,"eos":true}` + "\n",
		"short":       `{"request_id":7,"index":0}` + "\n",
		"early eos":   `{"request_id":7,"index":0,"eos":true}` + "\n" + `{"request_id":7,"index":1,"eos":true}` + "\n",
		"no eos":      `{"request_id":7,"index":0}` + "\n" + `{"request_id":7,"index":1}` + "\n",
		"after eos":   `{"request_id":7,"index":0}` + "\n" + `{"request_id":7,"index":1,"eos":true}` + "\n" + `{"request_id":7,"index":2}` + "\n",
		"other req":   `{"request_id":7,"index":0}` + "\n" + `{"request_id":8,"index":1,"eos":true}` + "\n",
		"not ndjson":  "hello\n",
		"empty":       "",
		"wrong count": good[:0] + `{"request_id":7,"index":0,"eos":true}` + "\n",
	}
	for name, s := range bad {
		var o outcome
		if err := readStream(strings.NewReader(s), 2, &o); err == nil {
			t.Errorf("%s: stream accepted", name)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"punica/internal/sched.(*Scheduler).Dispatch": "sched",
		"punica/internal/core.(*Engine).Step":         "core",
		"net/http.(*http2Framer).WriteData":           "nethttp",
		"encoding/json.(*decodeState).object":         "json",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/atomic.(*Uint32).Load":      "runtime",
		"syscall.Syscall6":                            "other",
		"main.readStream":                             "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if spec, ok := workloads[w.Name]; !ok || len(spec.endToEnd) != len(endToEnd) {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command with every end-to-end metric", w.Name)
		}
	}
}

// TestLiveWorkloadsSmoke runs both live workloads briefly, untraced and
// traced, and checks that every request passed the output checks and
// every metric the result line needs was measured.
func TestLiveWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live stacks")
	}
	t.Chdir(t.TempDir()) // the traced runs write their spans here
	layer := map[string][]string{
		"live-remote-poisson": {"gen.late_p99_ms", "remote.state.calls_per_req", "remote.frontend.proxy_ms", "span.runner.self_ms_p50"},
		"live-serve-saturate": {"serve.first_byte_ms_p50", "core.batch_fill", "sim.events", "cpu.serve_share"},
	}
	for name, want := range layer {
		for _, tr := range []*tracer{nil, newTracer()} {
			r, err := workloads[name].run(1, time.Second, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.failed != 0 || len(r.problems) != 0 || r.attempted == 0 {
				t.Fatalf("%s: %d of %d failed: %v", name, r.failed, r.attempted, r.problems)
			}
			if _, err := pick(r, endToEnd); err != nil {
				t.Errorf("%s (traced %v): %v", name, tr != nil, err)
			}
			for _, m := range want {
				if _, ok := r.get(m); !ok && tr != nil {
					t.Errorf("%s traced: %s was not measured", name, m)
				}
			}
		}
	}
}
