package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
	"punica/internal/serve"
)

func runnerConfig() core.Config {
	return core.Config{
		System: core.PunicaSystem(),
		GPU:    hw.A100(),
		Model:  models.Llama2_7B(),
		Rank:   models.DefaultLoRARank,
	}
}

func startRunner(t *testing.T, uuid string, maxBatch int) (*Runner, *httptest.Server) {
	t.Helper()
	cfg := runnerConfig()
	if maxBatch > 0 {
		cfg.System.MaxBatch = maxBatch
	}
	r := NewRunner(uuid, cfg, 5000)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	return r, srv
}

func TestRunnerEnqueueAndStream(t *testing.T) {
	_, srv := startRunner(t, "r0", 0)
	client := NewClient(srv.URL)

	req := &core.Request{ID: 1, Model: 7, PromptLen: 64, OutputLen: 6}
	if snap := client.Snapshot(); !snap.CanAdmit(req) {
		t.Fatal("fresh runner should admit")
	}
	if err := client.Enqueue(req, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(client.StreamURL(1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []TokenEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev TokenEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 6 || !events[5].EOS {
		t.Fatalf("streamed %d events (EOS=%v), want 6 with EOS", len(events), events[len(events)-1].EOS)
	}
}

func TestRunnerStateAndWorker(t *testing.T) {
	_, srv := startRunner(t, "r1", 8)
	client := NewClient(srv.URL)
	st, err := client.FetchState()
	if err != nil {
		t.Fatal(err)
	}
	if st.UUID != "r1" || st.MaxBatch != 8 || st.TotalPages == 0 {
		t.Fatalf("state malformed: %+v", st)
	}
	if mb := client.Snapshot().MaxBatch; mb != 8 {
		t.Fatalf("MaxBatch = %d", mb)
	}
	if client.WorkingSet() != 0 {
		t.Fatal("fresh runner should be empty")
	}
	if err := client.Enqueue(&core.Request{ID: 5, Model: 1, PromptLen: 32, OutputLen: 1000000}, 0); err != nil {
		t.Fatal(err)
	}
	if client.WorkingSet() != 1 {
		t.Fatal("working set should reflect the enqueue")
	}
	// Cancel returns migration state.
	time.Sleep(50 * time.Millisecond) // let some tokens generate
	got := client.Cancel(5, 0)
	if got == nil || got.ID != 5 {
		t.Fatalf("cancel returned %+v", got)
	}
	if client.WorkingSet() != 0 {
		t.Fatal("cancel should empty the runner")
	}
}

// TestClientSnapshotRoundTrip pins the policy framework's remote
// contract: one GET /runner/state carries the whole scheduling view —
// admission constraints plus resident adapters with pin state — so a
// scheduling decision costs one round-trip instead of a CanAdmit +
// WorkingSet pair per GPU.
func TestClientSnapshotRoundTrip(t *testing.T) {
	_, srv := startRunner(t, "r5", 8)
	client := NewClient(srv.URL)

	snap := client.Snapshot()
	if snap.MaxBatch != 8 || snap.TotalKVPages == 0 || snap.PageSize == 0 || !snap.PagedKV {
		t.Fatalf("fresh snapshot malformed: %+v", snap)
	}
	if !snap.CanAdmit(&core.Request{PromptLen: 32, OutputLen: 8}) {
		t.Fatal("fresh runner snapshot should admit")
	}
	if err := client.Enqueue(&core.Request{ID: 9, Model: 42, PromptLen: 32, OutputLen: 100000}, 0); err != nil {
		t.Fatal(err)
	}
	snap = client.Snapshot()
	if snap.WorkingSet != 1 {
		t.Fatalf("working set = %d after enqueue", snap.WorkingSet)
	}
	a, ok := snap.Adapter(42)
	if !ok || !a.Pinned || a.Rank != models.DefaultLoRARank || a.Bytes <= 0 {
		t.Fatalf("adapter state did not cross the wire: %+v (ok=%v)", a, ok)
	}
	if snap.StorePinnedBytes != a.Bytes || snap.StoreCapacityBytes <= 0 {
		t.Fatalf("store accounting malformed: pinned=%d capacity=%d want pinned=%d",
			snap.StorePinnedBytes, snap.StoreCapacityBytes, a.Bytes)
	}
}

func TestRunnerEvictForMigration(t *testing.T) {
	_, srv := startRunner(t, "r2", 8)
	client := NewClient(srv.URL)
	for i := int64(1); i <= 2; i++ {
		if err := client.Enqueue(&core.Request{
			ID: i, Model: lora.ModelID(i), PromptLen: 32, OutputLen: 100000,
			Arrival: time.Duration(i) * time.Millisecond,
		}, 0); err != nil {
			t.Fatal(err)
		}
	}
	victim := client.EvictNewest(0)
	if victim == nil || victim.ID != 2 {
		t.Fatalf("evicted %+v, want newest (id 2)", victim)
	}
	if client.EvictNewest(0) == nil {
		t.Fatal("second evict should return the remaining request")
	}
	if client.EvictNewest(0) != nil {
		t.Fatal("empty runner should evict nothing")
	}
}

func TestClientDegradesSafely(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens here
	if snap := client.Snapshot(); snap.CanAdmit(&core.Request{PromptLen: 1, OutputLen: 1}) {
		t.Fatal("unreachable runner's zero snapshot must refuse admission")
	}
	if client.WorkingSet() != 0 {
		t.Fatal("unreachable runner working set should read 0")
	}
	if _, err := client.FetchState(); err == nil {
		t.Fatal("transport error should surface")
	}
	if client.Cancel(1, 0) != nil || client.EvictNewest(0) != nil {
		t.Fatal("unreachable runner should return nil state")
	}
}

func TestFrontendEndToEnd(t *testing.T) {
	_, srvA := startRunner(t, "rA", 0)
	_, srvB := startRunner(t, "rB", 0)
	f := NewFrontendWithOptions([]string{srvA.URL, srvB.URL}, FrontendOptions{DrainInterval: 10 * time.Millisecond})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	// Three tenants through the frontend, concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(model int64) {
			defer wg.Done()
			body, _ := json.Marshal(serve.GenerateRequest{
				Model: model, PromptLen: 48, MaxTokens: 5,
			})
			resp, err := http.Post(front.URL+"/v1/generate", "application/json",
				bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			count := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				count++
			}
			if count != 5 {
				errs <- bufio.ErrTooLong // placeholder sentinel
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Stats aggregates both runners.
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Runners  []State `json:"runners"`
		QueueLen int     `json:"queue_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Runners) != 2 {
		t.Fatalf("stats has %d runners", len(stats.Runners))
	}
	total := stats.Runners[0].Tokens + stats.Runners[1].Tokens
	if total != 15 {
		t.Fatalf("runners generated %d tokens, want 15", total)
	}
}

func TestFrontendQueuesWhenSaturated(t *testing.T) {
	_, srv := startRunner(t, "rQ", 1) // batch cap 1
	f := NewFrontendWithOptions([]string{srv.URL}, FrontendOptions{DrainInterval: 5 * time.Millisecond})
	defer f.Close()

	// Two long-ish requests: the second must queue and then complete.
	done := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func(model int64) {
			id, client, err := f.Submit(model, 32, 4, 30*time.Second)
			if err != nil {
				done <- err
				return
			}
			resp, err := http.Get(client.StreamURL(id))
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			n := 0
			for sc.Scan() {
				n++
			}
			if n != 4 {
				done <- bufio.ErrTooLong
				return
			}
			done <- nil
		}(int64(i))
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireRoundtrip(t *testing.T) {
	r := &core.Request{
		ID: 9, Model: 4, PromptLen: 100, OutputLen: 50,
		Arrival: 123 * time.Millisecond, Generated: 7,
	}
	back := fromCore(r).toCore()
	if back.ID != r.ID || back.Model != r.Model || back.PromptLen != r.PromptLen ||
		back.OutputLen != r.OutputLen || back.Arrival != r.Arrival ||
		back.Generated != r.Generated {
		t.Fatalf("wire roundtrip lost state: %+v vs %+v", back, r)
	}
}

func TestRunnerBadRequests(t *testing.T) {
	_, srv := startRunner(t, "rX", 0)
	// Malformed JSON on every POST endpoint.
	for _, path := range []string{"/runner/enqueue", "/runner/cancel"} {
		resp, err := http.Post(srv.URL+path, "application/json",
			bytes.NewReader([]byte("{broken")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// Bad stream id.
	resp, err := http.Get(srv.URL + "/runner/stream?id=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad stream id: status %d", resp.StatusCode)
	}
	// Unknown stream id.
	resp, err = http.Get(srv.URL + "/runner/stream?id=424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream: status %d", resp.StatusCode)
	}
	// Health endpoint.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestRunnerLateStreamDrain(t *testing.T) {
	// A stream opened after generation completed must still deliver all
	// buffered tokens, exactly once.
	_, srv := startRunner(t, "rL", 0)
	client := NewClient(srv.URL)
	if err := client.Enqueue(&core.Request{ID: 3, Model: 2, PromptLen: 16, OutputLen: 5}, 0); err != nil {
		t.Fatal(err)
	}
	// Wait for completion.
	deadline := time.Now().Add(10 * time.Second)
	for client.WorkingSet() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("generation did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(client.StreamURL(3))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		n++
	}
	if n != 5 {
		t.Fatalf("late drain got %d tokens, want 5", n)
	}
	// The stream is removed after serving: second read is a 404.
	resp2, err := http.Get(client.StreamURL(3))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("re-read served twice: status %d", resp2.StatusCode)
	}
}

func TestFrontendStatsWithUnreachableRunner(t *testing.T) {
	_, srv := startRunner(t, "rOK", 0)
	f := NewFrontendWithOptions([]string{srv.URL, "http://127.0.0.1:1"}, FrontendOptions{DrainInterval: 10 * time.Millisecond})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Runners []State `json:"runners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Runners) != 2 {
		t.Fatalf("%d runners in stats", len(stats.Runners))
	}
	unreachable := 0
	for _, st := range stats.Runners {
		if st.UUID == "unreachable" {
			unreachable++
		}
	}
	if unreachable != 1 {
		t.Fatalf("%d unreachable runners reported, want 1", unreachable)
	}
	// Generation still works through the healthy runner.
	body, _ := json.Marshal(serve.GenerateRequest{Model: 1, PromptLen: 16, MaxTokens: 3})
	gen, err := http.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Body.Close()
	n := 0
	sc := bufio.NewScanner(gen.Body)
	for sc.Scan() {
		n++
	}
	if n != 3 {
		t.Fatalf("degraded frontend streamed %d tokens, want 3", n)
	}
}

func TestFrontendBadRequests(t *testing.T) {
	_, srv := startRunner(t, "rB2", 0)
	f := NewFrontendWithOptions([]string{srv.URL}, FrontendOptions{DrainInterval: 10 * time.Millisecond})
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/generate", "application/json",
		bytes.NewReader([]byte("{broken")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(serve.GenerateRequest{Model: 1, MaxTokens: 3})
	resp, err = http.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prompt: status %d", resp.StatusCode)
	}
}

// TestRunnerCloseStopsDriver closes a runner mid-generation: no step its
// wall clock scheduled may run afterwards.
func TestRunnerCloseStopsDriver(t *testing.T) {
	r := NewRunner("gpu-00", runnerConfig(), 50) // ~0.3ms of wall time per decode step
	steps := func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.eng.Stats().Steps
	}
	r.mu.Lock()
	if err := r.eng.Enqueue(&core.Request{ID: 1, Model: 1, PromptLen: 64, OutputLen: 1000}, r.clock.Now()); err != nil {
		t.Fatal(err)
	}
	r.drv.Kick()
	r.mu.Unlock()
	for steps() < 3 {
		time.Sleep(time.Millisecond)
	}
	r.Close()
	before := steps()
	time.Sleep(30 * time.Millisecond)
	if got := steps(); got != before {
		t.Fatalf("engine stepped %d more times after Close", got-before)
	}
}
