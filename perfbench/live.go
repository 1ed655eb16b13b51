package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/models"
	"punica/internal/serve"
	"punica/internal/workload"
)

// Both live deployments: 7B on simulated A100s with batch 8, paced at
// 50x, which is the speedup experiments.Overload runs its live stack at.
const (
	liveSpeedup  = 50
	liveMaxBatch = 8
	// drainLimit bounds how long requests still in flight at the end of
	// the measuring time may take before they count as failed.
	drainLimit = 30 * time.Second
)

func liveEngine() core.Config {
	sys := core.PunicaSystem()
	sys.MaxBatch = liveMaxBatch
	return core.Config{
		System: sys,
		GPU:    hw.A100(),
		Model:  models.Llama2_7B(),
		Rank:   models.DefaultLoRARank,
	}
}

// clientConns is the number of client connections: one per CPU, at most
// two, the CPUs of the machine the benchmark was sized on.
func clientConns() int { return min(runtime.NumCPU(), 2) }

// server serves a handler on a loopback port over HTTP/1.1 and cleartext
// HTTP/2, counting the connections it accepts.
type server struct {
	srv   *http.Server
	url   string
	conns atomic.Int64
	done  chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{
		Handler:   h,
		Protocols: p,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // closing the listener and connections is all that is wanted
	<-s.done
}

// client sends generation requests over a fixed set of cleartext HTTP/2
// connections, one per transport, used round-robin.
type client struct {
	base string
	hc   []*http.Client
	next atomic.Uint64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	for range conns {
		p := new(http.Protocols)
		p.SetUnencryptedHTTP2(true)
		c.hc = append(c.hc, &http.Client{Transport: &http.Transport{Protocols: p}})
	}
	return c
}

// warm opens every connection.
func (c *client) warm(ctx context.Context) error {
	for _, hc := range c.hc {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up: /healthz answered %d", resp.StatusCode)
		}
	}
	return nil
}

func (c *client) close() {
	for _, hc := range c.hc {
		hc.CloseIdleConnections()
	}
}

// tokenLine is the part of a streamed NDJSON token line the checks read.
type tokenLine struct {
	RequestID int64 `json:"request_id"`
	Index     int   `json:"index"`
	EOS       bool  `json:"eos"`
}

// generate sends one request and reads its stream into o. The stream is
// correct when it answers 200 and delivers token indices 0..n-1 exactly
// once and in order, with n = OutputLen, EOS on the last token and
// nothing after it.
func (c *client) generate(ctx context.Context, w workload.Request, o *outcome) {
	defer func() {
		if o.last.IsZero() {
			o.last = time.Now()
		}
	}()
	body, err := json.Marshal(serve.GenerateRequest{
		Model: w.Model, PromptLen: w.PromptLen, MaxTokens: w.OutputLen,
	})
	if err != nil {
		o.err = err.Error()
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		o.err = err.Error()
		return
	}
	o.sent = time.Now()
	resp, err := c.hc[c.next.Add(1)%uint64(len(c.hc))].Do(req)
	if err != nil {
		o.err = err.Error()
		return
	}
	defer resp.Body.Close()
	o.id, _ = strconv.ParseInt(resp.Header.Get("X-Request-ID"), 10, 64)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		o.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if err := readStream(resp.Body, w.OutputLen, o); err != nil {
		o.err = err.Error()
		return
	}
	o.ok = true
}

// readStream checks an NDJSON token stream against the expected token
// count, timing the first and the last token.
func readStream(r io.Reader, want int, o *outcome) error {
	sc := bufio.NewScanner(r)
	next := 0
	var id int64
	for sc.Scan() {
		now := time.Now()
		var tl tokenLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return fmt.Errorf("token %d: %w", next, err)
		}
		switch {
		case next == want:
			return fmt.Errorf("line after the final token: %q", sc.Bytes())
		case tl.Index != next:
			return fmt.Errorf("token index %d, want %d", tl.Index, next)
		case tl.EOS != (next == want-1):
			return fmt.Errorf("token %d of %d has eos=%v", next, want, tl.EOS)
		case next > 0 && tl.RequestID != id:
			return fmt.Errorf("token %d belongs to request %d, not %d", next, tl.RequestID, id)
		}
		if next == 0 {
			o.first, id = now, tl.RequestID
		}
		o.last = now
		next++
		o.tokens = next
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if next != want {
		return fmt.Errorf("stream ended after %d of %d tokens", next, want)
	}
	return nil
}

// liveRun holds what every live workload measures the same way.
type liveRun struct {
	mu       sync.Mutex
	outcomes []*outcome
}

func (l *liveRun) add(o *outcome) {
	l.mu.Lock()
	l.outcomes = append(l.outcomes, o)
	l.mu.Unlock()
}

// summarize reports the client-side end-to-end metrics over the
// outcomes. Throughput counts requests completed by the end of the
// measuring window; latency and CPU cover every request sent.
func (l *liveRun) summarize(r *result, start time.Time, window time.Duration, cost phaseCost) {
	end := start.Add(window)
	var ttft, tpot []float64
	var inWindow, tokens, ok int
	for _, o := range l.outcomes {
		r.attempted++
		if !o.ok {
			r.failed++
			if len(r.problems) < 10 {
				r.fail("request due at %v: %s", o.due.Sub(start).Round(time.Millisecond), o.err)
			}
			continue
		}
		ok++
		ttft = append(ttft, ms(o.ttft()))
		if gap, has := o.tpot(); has {
			tpot = append(tpot, ms(gap))
		}
		if !o.last.After(end) {
			inWindow++
			tokens += o.tokens
		}
	}
	r.add("req_per_s", "1/s", float64(inWindow)/window.Seconds())
	r.add("tokens_per_s", "1/s", float64(tokens)/window.Seconds())
	if ok > 0 {
		r.add("cpu_ms_per_req", "ms", ms(cost.cpu)/float64(ok))
	}
	r.add("heap_peak_mb", "MiB", cost.heapPeakMB)
	r.addPct("ttft_p50_ms", "ms", percentile(ttft, 50))
	r.addPct("ttft_p99_ms", "ms", percentile(ttft, 99))
	r.addPct("tpot_p50_ms", "ms", percentile(tpot, 50))
	r.addPct("tpot_p99_ms", "ms", percentile(tpot, 99))
	if r.attempted > 0 {
		r.add("fail_share", "ratio", float64(r.failed)/float64(r.attempted))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waitDrain waits for wg, giving up drainLimit after the measuring
// window ends; it then cancels what is still in flight.
func waitDrain(wg *sync.WaitGroup, cancel context.CancelFunc, windowEnd time.Time) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(time.Until(windowEnd.Add(drainLimit))):
		cancel()
		<-done
		return errors.New("requests still in flight after the drain limit")
	}
}
