// Distributed: the Fig. 2 deployment in miniature — two GPU runner
// processes behind the runner HTTP API, a frontend that schedules across
// them with the unmodified §5.1 policy, and tenants streaming tokens
// through the frontend. In production each piece runs on its own machine
// (see cmd/punica-runner and cmd/punica-serve -runners); here they share
// a process over loopback HTTP to stay self-contained.
//
//	go run ./examples/distributed
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"punica"
	"punica/internal/core"
	"punica/internal/remote"
	"punica/internal/serve"
)

func main() {
	cfg := core.Config{
		System: core.PunicaSystem(),
		GPU:    punica.A100(),
		Model:  punica.Llama2_7B(),
		Rank:   punica.DefaultLoRARank,
	}

	// Two "GPU servers".
	runnerA := remote.NewRunner("gpu-a", cfg, 500)
	defer runnerA.Close()
	srvA := httptest.NewServer(runnerA.Handler())
	defer srvA.Close()
	runnerB := remote.NewRunner("gpu-b", cfg, 500)
	defer runnerB.Close()
	srvB := httptest.NewServer(runnerB.Handler())
	defer srvB.Close()

	// The frontend + scheduler process.
	frontend := remote.NewFrontendWithOptions([]string{srvA.URL, srvB.URL}, remote.FrontendOptions{DrainInterval: 10 * time.Millisecond})
	defer frontend.Close()
	api := httptest.NewServer(frontend.Handler())
	defer api.Close()

	fmt.Println("runners :", srvA.URL, "(gpu-a),", srvB.URL, "(gpu-b)")
	fmt.Println("frontend:", api.URL)
	fmt.Println()

	// Five tenants stream concurrently through the frontend.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for tenant := int64(1); tenant <= 5; tenant++ {
		wg.Add(1)
		go func(model int64) {
			defer wg.Done()
			body, _ := json.Marshal(serve.GenerateRequest{
				Model:     model,
				Prompt:    "draft a status update for the weekly multi tenant serving sync",
				MaxTokens: 8,
			})
			resp, err := http.Post(api.URL+"/v1/generate", "application/json",
				bytes.NewReader(body))
			if err != nil {
				panic(err)
			}
			defer resp.Body.Close()
			count := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				count++
			}
			mu.Lock()
			fmt.Printf("tenant %d: %d tokens streamed (request %s)\n",
				model, count, resp.Header.Get("X-Request-ID"))
			mu.Unlock()
		}(tenant)
	}
	wg.Wait()

	// Where did the work land? The §5.1 policy consolidates onto the
	// busiest runner first.
	resp, err := http.Get(api.URL + "/v1/stats")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Runners  []remote.State `json:"runners"`
		QueueLen int            `json:"queue_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		panic(err)
	}
	fmt.Println("\ncluster state:")
	for _, st := range stats.Runners {
		fmt.Printf("  %s: %d steps, %d tokens generated, %d/%d KvCache pages free\n",
			st.UUID, st.Steps, st.Tokens, st.FreePages, st.TotalPages)
	}
}
