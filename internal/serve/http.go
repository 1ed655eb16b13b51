package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"punica/internal/sched"
)

// GenerateRequest is the POST /v1/generate body. Either Prompt (token
// count inferred) or PromptLen must be set.
type GenerateRequest struct {
	// Model is the LoRA adapter id ("the identifier of the LoRA model
	// and a prompt", §3).
	Model int64 `json:"model"`
	// Prompt is free text; its token count is estimated at ~¾ word per
	// token (§2.1).
	Prompt string `json:"prompt,omitempty"`
	// PromptLen overrides the estimated prompt token count.
	PromptLen int `json:"prompt_len,omitempty"`
	// MaxTokens is the response length limit (the stopping condition).
	MaxTokens int `json:"max_tokens"`
	// Tenant tags the request's owning user for the Config.Fairness
	// admission layer. 0 (or omitted) is untagged; negative is invalid.
	Tenant int64 `json:"tenant,omitempty"`
}

// TokenEvent is one NDJSON line of the streamed response.
type TokenEvent struct {
	RequestID int64   `json:"request_id"`
	Index     int     `json:"index"`
	TokenID   int     `json:"token_id"`
	SimTime   float64 `json:"sim_time_seconds"`
	EOS       bool    `json:"eos"`
}

// Backpressure is the unified JSON envelope for every overload-shaped
// refusal on the serving path: admission rejections and sheds (429) and
// other transient capacity failures (503). Clients key off Code;
// RetryAfterSeconds mirrors the Retry-After header for clients that
// prefer the body.
type Backpressure struct {
	Error             string  `json:"error"`
	Code              string  `json:"code"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// Backpressure codes.
const (
	CodeQueueFull       = "queue_full"        // server admission queue at cap
	CodeTenantQueueFull = "tenant_queue_full" // per-tenant cap reached
	CodeShed            = "shed"              // queued request shed for a higher-priority arrival
	CodeUnavailable     = "unavailable"       // other transient capacity failure
)

// ErrShed reports that the admission layer dropped a queued request to
// admit a higher-priority arrival before it produced a token. The
// generate endpoint answers it with 429.
var ErrShed = errors.New("request shed under overload before first token")

// EstimateTokens converts text to an approximate token count ("a token is
// roughly ¾ of an English word", §2.1 — i.e. ~4/3 tokens per word).
func EstimateTokens(text string) int {
	words := len(strings.Fields(text))
	if words == 0 {
		return 0
	}
	return (words*4 + 2) / 3
}

// Backend is one deployment behind the user API (Fig. 2's frontend):
// the in-process Server, or remote.Frontend over runner machines. It
// admits requests and hands back their token streams; Handler owns
// everything user-facing.
type Backend interface {
	// Open admits a request and returns its token stream. Admission
	// refusals are sched.ErrQueueFull, sched.ErrTenantQueueFull or
	// ErrShed; any other error is a transient failure. Open may block
	// while the request waits for capacity, until ctx ends.
	Open(ctx context.Context, model, tenant int64, promptLen, outputLen int) (Stream, error)
	// RetryAfter estimates, in wall time, how long a refused client
	// should wait before retrying. Handler clamps it.
	RetryAfter() time.Duration
	// Stats returns the GET /v1/stats body, encoded as JSON.
	Stats() any
}

// Stream is one admitted request's token stream.
type Stream interface {
	// ID is the request id, sent as X-Request-ID.
	ID() int64
	// Next returns the next token's NDJSON line, newline included,
	// valid until the following call. It returns io.EOF after EOS,
	// ErrShed when the request was shed before its first token, and
	// ctx's error once ctx ends.
	Next(ctx context.Context) ([]byte, error)
	// Cancel aborts the request wherever it is and frees its state.
	Cancel()
}

// Handler is the REST API over a Backend:
//
//	POST /v1/generate  — stream generated tokens as NDJSON
//	GET  /v1/stats     — deployment snapshot
//	GET  /healthz      — liveness
type Handler struct {
	b       Backend
	mux     *http.ServeMux
	http429 atomic.Int64
}

// NewHandler serves b's user API.
func NewHandler(b Backend) *Handler {
	h := &Handler{b: b, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/generate", h.generate)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// HTTP429 counts the 429s the generate endpoint has answered (admission
// rejections and shed victims).
func (h *Handler) HTTP429() int64 { return h.http429.Load() }

func (h *Handler) generate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	promptLen := req.PromptLen
	if promptLen == 0 {
		promptLen = EstimateTokens(req.Prompt)
	}
	if promptLen <= 0 {
		http.Error(w, "empty prompt", http.StatusBadRequest)
		return
	}
	if req.Tenant < 0 {
		http.Error(w, "negative tenant", http.StatusBadRequest)
		return
	}
	if req.MaxTokens <= 0 {
		req.MaxTokens = 128
	}
	ctx := r.Context()
	st, err := h.b.Open(ctx, req.Model, req.Tenant, promptLen, req.MaxTokens)
	if err != nil {
		h.refuse(w, err)
		return
	}

	// The 200 header is written lazily at the first token: a request
	// shed or dropped before producing anything still answers with the
	// backpressure envelope.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Request-ID", strconv.FormatInt(st.ID(), 10))
	flusher, _ := w.(http.Flusher)
	started := false
	for {
		line, err := st.Next(ctx)
		if err == io.EOF {
			return
		}
		if err != nil {
			// Shed, dropped, or the client disconnected — cancel and
			// free the GPU state ("A typical scenario for cancellation
			// is user disconnection", §5.3).
			st.Cancel()
			if !started {
				h.refuse(w, err)
			}
			return
		}
		if !started {
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if _, err := w.Write(line); err != nil {
			st.Cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// refuse answers a request that produced no token with the backpressure
// envelope: admission refusals and sheds are 429, anything else a
// retryable 503.
func (h *Handler) refuse(w http.ResponseWriter, err error) {
	code, status := CodeUnavailable, http.StatusServiceUnavailable
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, sched.ErrTenantQueueFull):
		code = CodeTenantQueueFull
	case errors.Is(err, ErrShed):
		code = CodeShed
	}
	if code != CodeUnavailable {
		status = http.StatusTooManyRequests
		h.http429.Add(1)
	}
	wait := clampRetryAfter(h.b.RetryAfter())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.FormatInt(int64((wait+time.Second-1)/time.Second), 10))
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(Backpressure{
		Error:             err.Error(),
		Code:              code,
		RetryAfterSeconds: wait.Seconds(),
	})
}

// clampRetryAfter bounds an advertised wait to [1s, 120s]: Retry-After
// has whole-second resolution, and callers should not be parked forever
// on a transient spike.
func clampRetryAfter(d time.Duration) time.Duration {
	return min(max(d, time.Second), 120*time.Second)
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(h.b.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
