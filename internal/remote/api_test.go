package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"punica/internal/sched"
	"punica/internal/serve"
)

// parityDeployments starts both deployments of the user API with one
// batch slot and a one-deep admission queue: the in-process server, and
// a frontend over one runner.
func parityDeployments(t *testing.T) map[string]string {
	t.Helper()
	cfg := runnerConfig()
	cfg.System.MaxBatch = 1
	adm := sched.AdmissionConfig{MaxQueue: 1}

	srv := serve.New(serve.Config{NumGPUs: 1, Engine: cfg, Speedup: 1000, Admission: adm})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	rn := NewRunner("parity", cfg, 1000)
	t.Cleanup(rn.Close)
	rs := httptest.NewServer(rn.Handler())
	t.Cleanup(rs.Close)
	f := NewFrontendWithOptions([]string{rs.URL}, FrontendOptions{DrainInterval: 5 * time.Millisecond, Admission: adm})
	t.Cleanup(f.Close)
	fs := httptest.NewServer(f.Handler())
	t.Cleanup(fs.Close)

	return map[string]string{"serve": hs.URL, "frontend": fs.URL}
}

func postGenerate(ctx context.Context, base, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/generate", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(req)
}

// checkStream asserts a 200 generate response: NDJSON with a request id
// header, indices 0..n-1 each exactly once in order, EOS on the last.
func checkStream(t *testing.T, resp *http.Response, n int) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	id, err := strconv.ParseInt(resp.Header.Get("X-Request-ID"), 10, 64)
	if err != nil {
		t.Fatalf("X-Request-ID = %q", resp.Header.Get("X-Request-ID"))
	}
	got := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			RequestID int64 `json:"request_id"`
			Index     int   `json:"index"`
			EOS       bool  `json:"eos"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", got, err)
		}
		if ev.RequestID != id || ev.Index != got || ev.EOS != (got == n-1) {
			t.Fatalf("line %d of %d: %+v (request %d)", got, n, ev, id)
		}
		got++
	}
	if got != n {
		t.Fatalf("streamed %d tokens, want %d", got, n)
	}
}

// TestUserAPIParity runs the same requests against the in-process
// server and the remote frontend: both are serve.Handler, so they
// validate, refuse and stream alike.
func TestUserAPIParity(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		status int
		tokens int
	}{
		{"malformed JSON", `{broken`, http.StatusBadRequest, 0},
		{"empty prompt", `{"model":1,"max_tokens":3}`, http.StatusBadRequest, 0},
		{"negative tenant", `{"model":1,"prompt_len":8,"max_tokens":3,"tenant":-1}`, http.StatusBadRequest, 0},
		{"default max_tokens", `{"model":1,"prompt_len":8}`, http.StatusOK, 128},
		{"prompt text", `{"model":2,"prompt":"three short words","max_tokens":5,"tenant":4}`, http.StatusOK, 5},
	}
	for name, base := range parityDeployments(t) {
		t.Run(name, func(t *testing.T) {
			for _, c := range cases {
				resp, err := postGenerate(context.Background(), base, c.body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.status {
					resp.Body.Close()
					t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
				}
				if c.status == http.StatusOK {
					checkStream(t, resp, c.tokens)
				}
				resp.Body.Close()
			}

			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: status %d", resp.StatusCode)
			}

			checkQueueFull429(t, base)
		})
	}
}

// checkQueueFull429 fills the batch slot and the queue slot with long
// generations, then expects the 429 envelope with an integer
// Retry-After of at least one second.
func checkQueueFull429(t *testing.T, base string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var fillers sync.WaitGroup
	defer fillers.Wait()
	defer cancel()
	long := `{"model":1,"prompt_len":32,"max_tokens":4096}`
	for i := 0; i < 2; i++ {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			if resp, err := postGenerate(ctx, base, long); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		// Let the first filler take the slot before the second queues.
		time.Sleep(20 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := postGenerate(ctx, base, long)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			defer resp.Body.Close()
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 {
				t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
			}
			var bp serve.Backpressure
			if err := json.NewDecoder(resp.Body).Decode(&bp); err != nil {
				t.Fatal(err)
			}
			if bp.Code != serve.CodeQueueFull || bp.RetryAfterSeconds < 1 {
				t.Fatalf("envelope %+v, want %q with retry_after_seconds >= 1", bp, serve.CodeQueueFull)
			}
			return
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontendGivingUpLeavesQueue: a queued request whose queue wait
// times out, or whose user disconnects, leaves the frontend's queue, so
// freeing capacity later does not place it (leaking its placement record
// and a runner stream nobody reads).
func TestFrontendGivingUpLeavesQueue(t *testing.T) {
	cfg := runnerConfig()
	cfg.System.MaxBatch = 1
	rn := NewRunner("rG", cfg, 50)
	srv := httptest.NewServer(rn.Handler())
	t.Cleanup(func() { srv.Close(); rn.Close() })
	f := NewFrontendWithOptions([]string{srv.URL}, FrontendOptions{DrainInterval: 5 * time.Millisecond})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	queueLen := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.sch.QueueLen()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Hold the single batch slot.
	held, _, err := f.Submit(1, 32, 4096, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := f.Submit(1, 32, 4, 20*time.Millisecond); err == nil {
		t.Fatal("second request placed while the slot was held")
	}
	if n := queueLen(); n != 0 {
		t.Fatalf("queue len %d after the queue wait timed out, want 0", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(serve.GenerateRequest{Model: 1, PromptLen: 32, MaxTokens: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := postGenerate(ctx, front.URL, string(body)); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the request to queue", func() bool { return queueLen() == 1 })
	cancel()
	<-done
	waitFor("the disconnected request to leave the queue", func() bool { return queueLen() == 0 })

	// Freeing the slot places nothing.
	f.cancelEverywhere(held)
	time.Sleep(30 * time.Millisecond) // several drain ticks
	f.mu.Lock()
	placed := len(f.placed)
	f.mu.Unlock()
	if placed != 0 {
		t.Fatalf("%d placement records left, want 0", placed)
	}
	st, err := NewClient(srv.URL).FetchState()
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkingSet != 0 {
		t.Fatalf("runner working set %d, want 0", st.WorkingSet)
	}
}
