// Package serve is the online serving stack of Fig. 2: frontends accept
// user requests over HTTP, the scheduler dispatches them to GPU runners,
// and generated tokens stream back to the client as they are produced.
//
// Substitution note (DESIGN.md): the paper implements the scheduler,
// frontend and runner in Rust with WebSockets; here one core.Driver per
// GPU steps the same engine and scheduler logic the simulator runs, with
// chunked NDJSON streaming. GPU time is simulated: the drivers run on a
// sim.WallClock that completes each invocation at its modelled end time
// scaled by a configurable speedup factor, so the server streams tokens
// at a realistic (or accelerated) cadence without hardware.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/metrics"
	"punica/internal/sched"
	"punica/internal/sim"
)

// Config assembles a serving deployment.
type Config struct {
	// NumGPUs is the number of simulated GPU runners.
	NumGPUs int
	// Engine is the per-GPU engine template.
	Engine core.Config
	// Speedup divides simulated latencies to produce wall-clock pacing:
	// 1 serves in real time, 100 (default) runs 100x faster.
	Speedup float64
	// Policy selects the placement policy by name ("" or "paper",
	// "affinity", "rank" — see internal/sched).
	Policy string
	// Fairness enables the scheduler's per-tenant VTC admission layer:
	// under contention, queued requests dispatch weighted-round-robin
	// across tenants instead of globally FCFS (see internal/sched
	// fair.go). Requests without a tenant tag share one bucket.
	Fairness bool

	// Admission bounds the scheduler's wait queue (overload protection):
	// arrivals over the caps are refused — HTTP 429 with a Retry-After
	// derived from the measured drain rate — or, under
	// sched.ShedBestEffort, admitted by shedding the lowest-priority
	// queued request. The zero config (the default) disables every cap
	// and keeps the legacy unbounded-queue behaviour byte-identical.
	Admission sched.AdmissionConfig

	// Tiers, when non-empty, backs every GPU's adapter store with the
	// staged node-SSD → host-RAM hierarchy (lora.TieredStore): HBM
	// misses cascade down the tiers instead of always paying a full
	// registry pull, and HBM evictions demote to host RAM. Parse CLI
	// syntax with lora.ParseTierSpec.
	Tiers []lora.TierSpec

	// PrefillGPUs/DecodeGPUs, when both > 0, disaggregate the server:
	// the fleet splits into a prefill pool (admits new requests) and a
	// decode pool (receives finished prefills by KV migration), and
	// NumGPUs is derived as their sum. Zero values keep the unified
	// paper deployment.
	PrefillGPUs int
	DecodeGPUs  int
}

// Server runs the scheduler and GPU drivers and routes token streams.
type Server struct {
	mu      sync.Mutex
	clock   *sim.WallClock
	sch     *sched.Scheduler
	gpus    []*sched.GPU
	drivers map[*sched.GPU]*core.Driver
	streams map[int64]*stream
	nextID  int64
	closed  bool
	api     *Handler

	// Fault accounting (FailGPU).
	failures  int64
	recovered int64
}

// stream is one request's token channel and its reader's state.
type stream struct {
	s  *Server
	id int64
	ch chan core.Token
	// shed is set, under Server.mu and before ch closes, when the
	// admission layer dropped the queued request: a reader that sees
	// the close can tell a shed from a drop.
	shed    bool
	started bool
	buf     bytes.Buffer
	enc     *json.Encoder
}

// errDropped reports a stream that closed before its first token
// without being shed (recovery failure or server close).
var errDropped = errors.New("request dropped before first token")

// New builds and starts a server: one driver per GPU. With
// PrefillGPUs/DecodeGPUs set, the first engines form the prefill pool
// and the rest the decode pool; finished prefills migrate between them
// at step boundaries by moving their KvCache.
func New(cfg Config) *Server {
	disagg := cfg.PrefillGPUs > 0 && cfg.DecodeGPUs > 0
	if disagg {
		cfg.NumGPUs = cfg.PrefillGPUs + cfg.DecodeGPUs
	}
	if cfg.NumGPUs <= 0 {
		cfg.NumGPUs = 1
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 100
	}
	s := &Server{
		drivers: make(map[*sched.GPU]*core.Driver),
		streams: make(map[int64]*stream),
	}
	s.api = NewHandler(s)
	s.clock = sim.NewWallClock(cfg.Speedup, &s.mu)
	for i := 0; i < cfg.NumGPUs; i++ {
		ec := cfg.Engine
		ec.OnToken = s.onToken
		ec.OnFinish = s.onFinish
		ec.Tiers = cfg.Tiers
		if disagg {
			if i < cfg.PrefillGPUs {
				ec.Role = core.RolePrefill
			} else {
				ec.Role = core.RoleDecode
			}
		}
		eng := core.NewEngine(ec)
		g := &sched.GPU{UUID: fmt.Sprintf("gpu-%02d", i), Engine: eng, Role: ec.Role}
		s.drivers[g] = s.newDriver(g, eng)
		s.gpus = append(s.gpus, g)
	}
	policy, err := sched.PolicyByName(cfg.Policy, sched.PolicyConfig{
		Base:        cfg.Engine.Model,
		DefaultRank: cfg.Engine.Rank,
		RankOf:      cfg.Engine.AdapterRank,
	})
	if err != nil {
		panic("serve: " + err.Error())
	}
	s.sch = sched.NewWithPolicy(s.gpus, policy)
	s.sch.SetFairness(cfg.Fairness)
	s.sch.SetAdmission(cfg.Admission)
	s.sch.OnShed = s.onShed
	return s
}

// newDriver steps one GPU's engine on the server's wall clock. Evicted
// requests are re-placed through the scheduler; at each step boundary a
// prefill-pool GPU hands its finished prefills to the decode pool
// (KvCache moved, not recomputed — the in-process token streams carry
// over untouched, indices simply continue on the new engine), and freed
// capacity drains the queue. Every GPU that receives work is kicked.
func (s *Server) newDriver(g *sched.GPU, eng *core.Engine) *core.Driver {
	return core.NewDriver(eng, s.clock, core.DriverHooks{
		Evicted: func(evicted []*core.Request, now time.Duration) {
			for _, ev := range evicted {
				dst, err := s.sch.Reschedule(ev, g, now)
				if err != nil {
					s.closeStream(ev.ID)
				} else if dst != nil {
					s.drivers[dst].Kick()
				}
			}
		},
		Completed: func(res core.StepResult, now time.Duration) {
			var dsts []*sched.GPU
			if g.Role == core.RolePrefill {
				// An error leaves the remaining prefills on g.
				dsts, _ = s.sch.MigratePrefilled(g, now)
			}
			for _, d := range dsts {
				s.drivers[d].Kick()
			}
			if len(dsts) > 0 || len(res.Finished) > 0 || len(res.Evicted) > 0 {
				s.drainQueue(now)
			}
		},
	})
}

// drainQueue offers queued requests to freed capacity and kicks the
// GPUs that received them.
func (s *Server) drainQueue(now time.Duration) {
	placed, err := s.sch.DrainQueue(now)
	if err != nil {
		return
	}
	for _, p := range placed {
		s.drivers[p.GPU].Kick()
	}
}

// onToken runs inside Engine.Step with s.mu held.
func (s *Server) onToken(tok core.Token) {
	if st, ok := s.streams[tok.RequestID]; ok {
		select {
		case st.ch <- tok:
		default: // stream buffer full: client abandoned; drop.
		}
	}
}

// onFinish runs inside Engine.Step with s.mu held.
func (s *Server) onFinish(r *core.Request) { s.closeStream(r.ID) }

// onShed runs inside Scheduler.Dispatch with s.mu held: the admission
// layer dropped a queued request to admit a higher-priority arrival.
// Closing the victim's stream wakes its reader, which answers 429
// instead of a truncated 200.
func (s *Server) onShed(r *core.Request) {
	if st, ok := s.streams[r.ID]; ok {
		st.shed = true
	}
	s.closeStream(r.ID)
}

// Handler returns the REST API (see serve.Handler).
func (s *Server) Handler() http.Handler { return s.api }

// RetryAfter estimates, in wall time, when a rejected client should
// retry: the simulated time the current drain rate needs to free one
// queue slot, converted through the speedup factor and clamped to
// [1s, 120s].
func (s *Server) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return clampRetryAfter(s.clock.Wall(s.sch.RetryAfterHint(1)))
}

// Stats returns the GET /v1/stats body: the Snapshot.
func (s *Server) Stats() any { return s.Snapshot() }

// Submit enqueues a generation request and returns its id and token
// stream. The stream is closed when generation completes or the request
// is cancelled.
func (s *Server) Submit(model int64, promptLen, outputLen int) (int64, <-chan core.Token, error) {
	st, err := s.submit(model, 0, promptLen, outputLen)
	if err != nil {
		return 0, nil, err
	}
	return st.id, st.ch, nil
}

// Open is Submit for the REST API: the stream yields each token's
// NDJSON line. Under Config.Fairness the scheduler's VTC layer keys
// admission fairness on tenant (0 is untagged: all untagged requests
// share one fairness bucket). Open never blocks; a queued request's
// stream waits in Next.
func (s *Server) Open(_ context.Context, model, tenant int64, promptLen, outputLen int) (Stream, error) {
	st, err := s.submit(model, tenant, promptLen, outputLen)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (s *Server) submit(model, tenant int64, promptLen, outputLen int) (*stream, error) {
	if promptLen <= 0 || outputLen <= 0 {
		return nil, fmt.Errorf("serve: prompt and output lengths must be positive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server closed")
	}
	s.nextID++
	id := s.nextID
	st := &stream{s: s, id: id, ch: make(chan core.Token, outputLen+1)}
	st.enc = json.NewEncoder(&st.buf)
	s.streams[id] = st
	now := s.clock.Now()
	r := &core.Request{
		ID:        id,
		Model:     lora.ModelID(model),
		PromptLen: promptLen,
		OutputLen: outputLen,
		Arrival:   now,
		Tenant:    tenant,
	}
	g, err := s.sch.Dispatch(r, now)
	if err != nil {
		delete(s.streams, id)
		return nil, err
	}
	if g != nil {
		s.drivers[g].Kick()
	}
	return st, nil
}

func (st *stream) ID() int64 { return st.id }

func (st *stream) Cancel() { st.s.Cancel(st.id) }

// Next encodes the next token into the stream's reused buffer.
func (st *stream) Next(ctx context.Context) ([]byte, error) {
	select {
	case tok, ok := <-st.ch:
		if !ok {
			switch {
			case st.started:
				return nil, io.EOF
			case st.shed:
				return nil, ErrShed
			}
			return nil, errDropped
		}
		st.started = true
		st.buf.Reset()
		err := st.enc.Encode(&TokenEvent{
			RequestID: tok.RequestID,
			Index:     tok.Index,
			TokenID:   tok.TokenID,
			SimTime:   tok.At.Seconds(),
			EOS:       tok.EOS,
		})
		return st.buf.Bytes(), err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// FailGPU kills one in-process GPU by UUID: its engine drops all
// resident state (KvCache, adapter pins) and every lost request is
// requeued FCFS onto the survivors with prefill recomputation. Because
// the same *core.Request objects recover in-process, Generated carries
// over and open token streams resume seamlessly where they left off.
// It reports whether the GPU existed and was alive.
func (s *Server) FailGPU(uuid string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	g, lost, _, ok := s.sch.FailGPU(uuid, now)
	if !ok {
		return false
	}
	s.drivers[g].Stop()
	s.failures++
	for i, got := range s.gpus {
		if got == g {
			s.gpus = append(s.gpus[:i], s.gpus[i+1:]...)
			break
		}
	}
	for _, r := range lost {
		s.recovered++
		dst, err := s.sch.Requeue(r, now)
		if err != nil {
			s.closeStream(r.ID)
		} else if dst != nil {
			s.drivers[dst].Kick()
		}
	}
	return true
}

// Cancel aborts a request (e.g. the client disconnected, §5.3) whether
// it is running or still queued, and closes its stream. It reports
// whether the request was found.
func (s *Server) Cancel(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	found := s.sch.CancelQueued(id)
	for i := 0; !found && i < len(s.gpus); i++ {
		found = s.gpus[i].Engine.Cancel(id, now) != nil
	}
	found = s.closeStream(id) || found
	if found {
		// The cancel freed batch/KvCache room: give it to the queue now.
		// Without this, a fleet whose engines are all idle strands queued
		// requests until the next finish.
		s.drainQueue(now)
	}
	return found
}

// GPUState is one runner's snapshot for the stats endpoint.
type GPUState struct {
	UUID         string `json:"uuid"`
	Role         string `json:"role"`
	WorkingSet   int    `json:"working_set"`
	ActiveBatch  int    `json:"active_batch"`
	FreeKVPages  int    `json:"free_kv_pages"`
	TotalKVPages int    `json:"total_kv_pages"`
	Adapters     int    `json:"resident_adapters"`
	Steps        int64  `json:"steps"`
	Tokens       int64  `json:"tokens_generated"`
}

// Stats is the cluster snapshot.
type Stats struct {
	GPUs       []GPUState `json:"gpus"`
	QueueLen   int        `json:"queue_len"`
	Streams    int        `json:"open_streams"`
	SimTime    float64    `json:"sim_time_seconds"`
	NeedMore   bool       `json:"need_more_gpus"`
	Releasable int        `json:"releasable_gpus"`
	// GPUFailures counts FailGPU kills; Recovered the requests requeued
	// off dead GPUs.
	GPUFailures int64 `json:"gpu_failures"`
	Recovered   int64 `json:"recovered_requests"`
	// KVMigrations counts prefill→decode KvCache handoffs;
	// AdapterPrefetches the decode-target warm-ups overlapped with
	// prefill (both zero in unified mode).
	KVMigrations      int64 `json:"kv_migrations"`
	AdapterPrefetches int64 `json:"adapter_prefetches"`
	// Tiers merges the per-GPU staging-tier counters (Config.Tiers);
	// ColdStarts/ColdStartP99 summarise the staged HBM-miss latency they
	// explain. All empty/zero on flat-store deployments.
	Tiers        []lora.TierStats `json:"tiers,omitempty"`
	ColdStarts   int              `json:"cold_starts,omitempty"`
	ColdStartP99 float64          `json:"cold_start_p99_seconds,omitempty"`
	// Overload-protection state (Config.Admission): the deepest the wait
	// queue has been, the measured drain rate feeding Retry-After, and
	// the admission outcome counters.
	QueuePeak      int     `json:"queue_peak"`
	DrainRate      float64 `json:"drain_rate_per_sec,omitempty"`
	Rejected       int64   `json:"admission_rejected,omitempty"`
	TenantRejected int64   `json:"admission_tenant_rejected,omitempty"`
	Shed           int64   `json:"admission_shed,omitempty"`
	HTTP429        int64   `json:"http_429,omitempty"`
}

// Snapshot returns the current cluster state.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cold metrics.Histogram
	st := Stats{
		QueueLen:          s.sch.QueueLen(),
		Streams:           len(s.streams),
		SimTime:           s.clock.Now().Seconds(),
		NeedMore:          s.sch.NeedMoreGPUs(),
		Releasable:        len(s.sch.ReleasableGPUs()),
		GPUFailures:       s.failures,
		Recovered:         s.recovered,
		KVMigrations:      s.sch.Stats().KVMigrations,
		AdapterPrefetches: s.sch.Stats().AdapterPrefetches,
		QueuePeak:         s.sch.QueuePeak(),
		DrainRate:         s.sch.DrainRate(),
		Rejected:          s.sch.AdmissionStats().Rejected,
		TenantRejected:    s.sch.AdmissionStats().TenantRejected,
		Shed:              s.sch.AdmissionStats().Shed,
		HTTP429:           s.api.HTTP429(),
	}
	for _, g := range s.gpus {
		eng := g.Engine.(*core.Engine)
		es := eng.Stats()
		gs := GPUState{
			UUID:         g.UUID,
			Role:         g.Role.String(),
			WorkingSet:   eng.WorkingSet(),
			ActiveBatch:  eng.ActiveBatch(),
			FreeKVPages:  eng.KV().FreePages(),
			TotalKVPages: eng.KV().TotalPages(),
			Steps:        es.Steps,
			Tokens:       es.TokensGenerated,
		}
		if store := eng.Store(); store != nil {
			gs.Adapters = store.Len()
		}
		if tiers := eng.Tiers(); tiers != nil {
			st.Tiers = lora.MergeTierStats(st.Tiers, tiers.Stats())
			cold.Merge(tiers.ColdStarts())
		}
		st.GPUs = append(st.GPUs, gs)
	}
	st.ColdStarts = cold.Count()
	st.ColdStartP99 = cold.Percentile(99)
	return st
}

// Close stops the drivers and closes all open streams. Nothing the
// server's clock scheduled runs afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.clock.Stop()
	for id := range s.streams {
		s.closeStream(id)
	}
}

// closeStream closes and forgets a request's token stream, reporting
// whether one was open.
func (s *Server) closeStream(id int64) bool {
	st, ok := s.streams[id]
	if ok {
		close(st.ch)
		delete(s.streams, id)
	}
	return ok
}
