package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/models"
)

func testServer(t *testing.T, gpus int) *Server {
	t.Helper()
	s := New(Config{
		NumGPUs: gpus,
		Engine: core.Config{
			System: core.PunicaSystem(),
			GPU:    hw.A100(),
			Model:  models.Llama2_7B(),
			Rank:   models.DefaultLoRARank,
		},
		Speedup: 5000, // keep wall time tiny in tests
	})
	t.Cleanup(s.Close)
	return s
}

func TestSubmitAndStream(t *testing.T) {
	s := testServer(t, 1)
	id, stream, err := s.Submit(7, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero request id")
	}
	var tokens []core.Token
	timeout := time.After(10 * time.Second)
	for {
		select {
		case tok, ok := <-stream:
			if !ok {
				if len(tokens) != 10 {
					t.Fatalf("streamed %d tokens, want 10", len(tokens))
				}
				if !tokens[9].EOS {
					t.Fatal("last token should be EOS")
				}
				return
			}
			tokens = append(tokens, tok)
		case <-timeout:
			t.Fatalf("stream stalled after %d tokens", len(tokens))
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s := testServer(t, 2)
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(model int64) {
			defer wg.Done()
			_, stream, err := s.Submit(model, 32, 6)
			if err != nil {
				errs <- err
				return
			}
			count := 0
			deadline := time.After(15 * time.Second)
			for {
				select {
				case _, ok := <-stream:
					if !ok {
						if count != 6 {
							errs <- fmt.Errorf("model %d got %d tokens", model, count)
						}
						return
					}
					count++
				case <-deadline:
					errs <- fmt.Errorf("model %d stalled", model)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCancelMidStream(t *testing.T) {
	s := testServer(t, 1)
	id, stream, err := s.Submit(1, 64, 100000) // effectively endless
	if err != nil {
		t.Fatal(err)
	}
	// Read a couple of tokens, then cancel.
	for i := 0; i < 2; i++ {
		select {
		case <-stream:
		case <-time.After(10 * time.Second):
			t.Fatal("no tokens before cancel")
		}
	}
	if !s.Cancel(id) {
		t.Fatal("cancel did not find the request")
	}
	// Stream must close promptly.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-stream:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream not closed after cancel")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := testServer(t, 1)
	if _, _, err := s.Submit(1, 0, 5); err == nil {
		t.Fatal("zero prompt should fail")
	}
	if _, _, err := s.Submit(1, 5, 0); err == nil {
		t.Fatal("zero output should fail")
	}
}

func TestHTTPGenerateStreams(t *testing.T) {
	s := testServer(t, 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(GenerateRequest{
		Model:     3,
		Prompt:    "translate this sentence into french please and thank you",
		MaxTokens: 5,
	})
	resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type %q", got)
	}
	var events []TokenEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev TokenEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
	}
	if !events[4].EOS {
		t.Fatal("final event should be EOS")
	}
}

func TestHTTPClientDisconnectCancels(t *testing.T) {
	s := testServer(t, 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(GenerateRequest{Model: 1, PromptLen: 64, MaxTokens: 1000000})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/generate", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line then disconnect.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first token")
	}
	cancel()
	resp.Body.Close()

	// The engine must drain: working set returns to 0.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Snapshot()
		if st.GPUs[0].WorkingSet == 0 && st.Streams == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("request not cancelled after client disconnect")
}

func TestHTTPStatsAndHealth(t *testing.T) {
	s := testServer(t, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.GPUs) != 2 {
		t.Fatalf("stats has %d GPUs, want 2", len(st.GPUs))
	}
	if st.GPUs[0].TotalKVPages == 0 {
		t.Fatal("KV pool missing from stats")
	}
	if st.Releasable != 2 {
		t.Fatalf("idle cluster should report 2 releasable GPUs, got %d", st.Releasable)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := testServer(t, 1)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/generate", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(GenerateRequest{Model: 1, MaxTokens: 5}) // no prompt
	resp, err = http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prompt: status %d", resp.StatusCode)
	}
}

func TestEstimateTokens(t *testing.T) {
	if EstimateTokens("") != 0 {
		t.Fatal("empty text should be 0 tokens")
	}
	// 3 words ≈ 4 tokens (¾ word per token).
	if got := EstimateTokens("one two three"); got != 4 {
		t.Fatalf("EstimateTokens = %d, want 4", got)
	}
}

func TestServerCloseIsClean(t *testing.T) {
	s := testServer(t, 1)
	_, stream, err := s.Submit(1, 32, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Stream must be closed; further submits must fail.
	for range stream {
	}
	if _, _, err := s.Submit(1, 32, 10); err == nil {
		t.Fatal("submit after close should fail")
	}
	// Nothing the wall clock scheduled runs after Close.
	steps := s.Snapshot().GPUs[0].Steps
	time.Sleep(30 * time.Millisecond)
	if got := s.Snapshot().GPUs[0].Steps; got != steps {
		t.Fatalf("engine stepped %d more times after Close", got-steps)
	}
}
