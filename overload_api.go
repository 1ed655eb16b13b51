package punica

import (
	"punica/internal/remote"
	"punica/internal/sched"
	"punica/internal/serve"
)

// Overload protection and degraded-mode serving: the admission layer
// that bounds the scheduler's queue, the backpressure envelope the HTTP
// surfaces answer with, and the frontend-side resilience machinery
// (seeded network fault injection, retry with idempotent resubmission,
// per-runner circuit breakers).

// AdmissionConfig bounds the scheduler's wait queue
// (ClusterConfig/ServeConfig admission): arrivals past MaxQueue or a
// tenant's MaxPerTenant are refused or, under ShedBestEffort, admitted
// by dropping the lowest-VTC-priority queued request. The zero value
// keeps the legacy unbounded queue.
type AdmissionConfig = sched.AdmissionConfig

// ShedPolicy selects what happens at the admission cap.
type ShedPolicy = sched.ShedPolicy

// Shed policies.
const (
	ShedReject     = sched.ShedReject
	ShedBestEffort = sched.ShedBestEffort
)

// ParseShedPolicy maps a CLI string ("", "reject", "shed-best-effort")
// to a ShedPolicy.
func ParseShedPolicy(s string) (ShedPolicy, error) { return sched.ParseShedPolicy(s) }

// AdmissionStats counts admission outcomes (rejections, tenant-cap
// rejections, sheds) after a run.
type AdmissionStats = sched.AdmissionStats

// Errors the admission layer refuses arrivals with; the serve layer
// maps both to HTTP 429 with a drain-rate-derived Retry-After.
var (
	ErrQueueFull       = sched.ErrQueueFull
	ErrTenantQueueFull = sched.ErrTenantQueueFull
)

// Backpressure is the unified JSON envelope every overload-shaped HTTP
// refusal wears (429 admission rejections and sheds, 503 transient
// failures); clients key off Code and honor Retry-After.
type Backpressure = serve.Backpressure

// Backpressure envelope codes.
const (
	BackpressureQueueFull       = serve.CodeQueueFull
	BackpressureTenantQueueFull = serve.CodeTenantQueueFull
	BackpressureShed            = serve.CodeShed
	BackpressureUnavailable     = serve.CodeUnavailable
)

// NetFaultPlan is a deterministic, seeded schedule of injected network
// faults for frontend-runner links: latency adds, request/response
// drops and partitions, each with a ramp/hold/heal window. The network
// counterpart of FaultPlan's GPU crashes.
type NetFaultPlan = remote.NetFaultPlan

// NetFaultEvent is one fault window in a NetFaultPlan.
type NetFaultEvent = remote.NetFaultEvent

// NetFaultKind selects a network failure mode.
type NetFaultKind = remote.NetFaultKind

// Network failure modes a NetFaultEvent can inject.
const (
	NetFaultLatency      = remote.FaultLatency
	NetFaultDropRequest  = remote.FaultDropRequest
	NetFaultDropResponse = remote.FaultDropResponse
	NetFaultPartition    = remote.FaultPartition
)

// ParseNetFaultPlan parses the fault-plan mini-language, e.g.
// "seed=1; lat=at:10s,hold:5s,add:200ms; part=at:30s,hold:10s,link:1".
func ParseNetFaultPlan(s string) (NetFaultPlan, error) { return remote.ParseNetFaultPlan(s) }

// NetFaultInjector realizes a plan as per-link http.RoundTripper
// wrappers with pure-hash (seed, link, event, call) fault draws — the
// same plan and call sequence always injects the same faults.
type NetFaultInjector = remote.NetFaultInjector

// NewNetFaultInjector builds an injector whose clock starts now.
func NewNetFaultInjector(plan NetFaultPlan) *NetFaultInjector {
	return remote.NewNetFaultInjector(plan)
}

// NetFaultStats counts the faults an injector actually delivered.
type NetFaultStats = remote.NetFaultStats

// RetryPolicy configures the frontend client's retry loop: exponential
// backoff with deterministic jitter, Retry-After hints win outright,
// and idempotency keys make resubmission exactly-once on the runner.
type RetryPolicy = remote.RetryPolicy

// BreakerConfig configures per-runner circuit breakers in the frontend:
// Threshold consecutive transport failures open the breaker (placements
// stop), Cooldown later it half-opens, and health probes walk it back
// to closed. The zero value disables breakers.
type BreakerConfig = remote.BreakerConfig

// BreakerState is a circuit breaker's position.
type BreakerState = remote.BreakerState

// Circuit-breaker states.
const (
	BreakerClosed   = remote.BreakerClosed
	BreakerOpen     = remote.BreakerOpen
	BreakerHalfOpen = remote.BreakerHalfOpen
)
