package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sampleHeader marks the benchmark's own state samples, which the
// handler taps leave out of the RPC counts.
const sampleHeader = "X-Perfbench-Sample"

// tracer records, from outside the program, the spans and counters of
// the traced run: it wraps the HTTP handlers the program exposes, times
// the calls the benchmark makes, and holds a CPU profile. Everything
// stays in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	calls map[string]*callStats
	// notModified counts GET /runner/state answered 304; rpcBytes the
	// request and response bodies of the runners' unary RPCs.
	notModified int
	rpcBytes    int64
	// First token write per request ID: on the runner stream, and on the
	// frontend's or the in-process server's generate response.
	runnerFirst, serverFirst map[int64]time.Time

	prof      bytes.Buffer
	profiling bool
	// recording is on only while a traced phase measures.
	recording bool
}

// callStats aggregates one kind of handled call.
type callStats struct {
	n int
	// durUS is each call's handler time; firstMS the time from handler
	// entry to its first body write.
	durUS, firstMS []float64
	bytes, lines   int64
}

func newTracer() *tracer {
	return &tracer{
		calls:       map[string]*callStats{},
		runnerFirst: map[int64]time.Time{},
		serverFirst: map[int64]time.Time{},
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if t.recording {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// start begins recording from a clean slate; set-up calls are not kept.
// It also starts the CPU profile.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans, t.notModified, t.rpcBytes = nil, 0, 0
	clear(t.calls)
	clear(t.runnerFirst)
	clear(t.serverFirst)
	t.recording = true
	t.mu.Unlock()
	t.profiling = pprof.StartCPUProfile(&t.prof) == nil
}

// stop ends recording and the CPU profile. Calls still arriving, such as
// health probes, pass through unrecorded, so the counters can be read.
func (t *tracer) stop() {
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
	if t.profiling {
		pprof.StopCPUProfile()
	}
}

func (t *tracer) stats(kind string) *callStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cs := t.calls[kind]; cs != nil {
		return cs
	}
	return &callStats{}
}

// classify names the call a request makes on a layer's handler; "" means
// the call is not recorded.
func classify(layer, path string) string {
	switch {
	case layer == "runner" && path == "/runner/state":
		return "runner.state"
	case layer == "runner" && path == "/runner/enqueue":
		return "runner.enqueue"
	case layer == "runner" && path == "/runner/stream":
		return "runner.stream"
	case layer == "runner" && strings.HasPrefix(path, "/runner/"):
		return "runner.other"
	case path == "/v1/generate":
		return layer + ".generate"
	}
	return ""
}

// wrap taps a layer's handler: it times each call, counts its bytes and
// token lines, and records a span under the request's ID.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kind := classify(layer, req.URL.Path)
		if kind == "" || req.Header.Get(sampleHeader) != "" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		var id, reqBytes int64
		if req.Method == http.MethodPost {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			reqBytes = int64(len(body))
			var named struct {
				ID int64 `json:"id"`
			}
			if json.Unmarshal(body, &named) == nil {
				id = named.ID
			}
		}
		if kind == "runner.stream" {
			id, _ = strconv.ParseInt(req.URL.Query().Get("id"), 10, 64)
		}
		tw := &tapWriter{ResponseWriter: w}
		h.ServeHTTP(tw, req)
		end := time.Now()
		if strings.HasSuffix(kind, ".generate") {
			id, _ = strconv.ParseInt(tw.Header().Get("X-Request-ID"), 10, 64)
		}

		t.mu.Lock()
		defer t.mu.Unlock()
		if !t.recording {
			return
		}
		cs := t.calls[kind]
		if cs == nil {
			cs = &callStats{}
			t.calls[kind] = cs
		}
		cs.n++
		cs.durUS = append(cs.durUS, float64(end.Sub(start))/float64(time.Microsecond))
		cs.bytes += tw.bytes
		cs.lines += tw.lines
		if !tw.first.IsZero() {
			cs.firstMS = append(cs.firstMS, ms(tw.first.Sub(start)))
		}
		switch kind {
		case "runner.state":
			if tw.status == http.StatusNotModified {
				t.notModified++
			}
		case "runner.stream":
			if _, seen := t.runnerFirst[id]; !seen && !tw.first.IsZero() {
				t.runnerFirst[id] = tw.first
			}
		case "frontend.generate", "serve.generate":
			if !tw.first.IsZero() {
				t.serverFirst[id] = tw.first
			}
		}
		if kind == "runner.state" || kind == "runner.enqueue" || kind == "runner.other" {
			t.rpcBytes += reqBytes + tw.bytes
		}
		t.spans = append(t.spans, span{Trace: id, Name: kind, Start: start, End: end})
	})
}

// tapWriter counts what a handler writes and when it first writes.
type tapWriter struct {
	http.ResponseWriter
	status       int
	bytes, lines int64
	first        time.Time
}

func (w *tapWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(b []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.bytes += int64(len(b))
	w.lines += int64(bytes.Count(b, []byte{'\n'}))
	return w.ResponseWriter.Write(b)
}

// Flush keeps the streaming handlers streaming through the tap.
func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// addCPUShares reports the CPU profile's self time by package bucket.
func (t *tracer) addCPUShares(r *result) {
	if !t.profiling {
		r.fail("the CPU profile could not be started")
		return
	}
	shares, err := cpuShares(t.prof.Bytes())
	if err != nil {
		r.fail("%v", err)
		return
	}
	for _, b := range cpuBuckets {
		r.add("cpu."+b+"_share", "ratio", shares[b])
	}
}

// addClientSpans records a client span per live request.
func (t *tracer) addClientSpans(outs []*outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range outs {
		t.spans = append(t.spans, span{Trace: o.id, Name: "client", Start: o.sent, End: o.last})
	}
}

// selfTimes computes each span's self time. A request's client span has
// its server generate span as child, and the server span has the runner
// spans of the same request; a runner span has none.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[int64][]int{}
	for i, s := range t.spans {
		if s.Trace != 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		var children []span
		if s.Trace != 0 {
			for _, j := range byTrace[s.Trace] {
				if c := t.spans[j]; depth(c.Name) == depth(s.Name)+1 {
					children = append(children, c)
				}
			}
		}
		self[i] = selfTime(s, children)
	}
	return self
}

// depth is a span's level in a request: client, server, runner.
func depth(name string) int {
	switch {
	case name == "client":
		return 0
	case strings.HasSuffix(name, ".generate"):
		return 1
	}
	return 2
}

// addSpanReadings reports the median self time per level and writes the
// spans, with their self times, as JSON lines to path.
func (t *tracer) addSpanReadings(r *result, path string) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var levels [3][]float64
	runner := map[int64]time.Duration{}
	for i, s := range t.spans {
		switch d := depth(s.Name); {
		case s.Trace == 0 || s.Name == "cluster.Run":
		case d == 2:
			runner[s.Trace] += self[i]
		default:
			levels[d] = append(levels[d], ms(self[i]))
		}
	}
	for _, v := range runner {
		levels[2] = append(levels[2], ms(v))
	}
	for d, name := range []string{"client", "server", "runner"} {
		r.addPct("span."+name+".self_ms_p50", "ms", percentile(levels[d], 50))
	}
	if err := writeSpans(path, t.spans, self); err != nil {
		r.fail("writing spans: %v", err)
	}
}

func writeSpans(path string, spans []span, self []time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		line := struct {
			span
			SelfUS int64 `json:"self_us"`
		}{s, self[i].Microseconds()}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampler calls fn every period until stopped.
type sampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
}

// spanPath is where a traced run writes its spans, inside the checkout's
// build directory.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
