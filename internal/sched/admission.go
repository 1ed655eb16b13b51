// Serve-layer admission control: bounded admission queues with a
// load-shedding policy, so an open-loop arrival process (the traffic
// engine at 4x capacity, a flash crowd, a retry storm) cannot grow the
// FCFS queue without bound and take the frontend down with it.
//
// Two caps apply at Dispatch time, both off by default so every legacy
// code path — golden traces, bench gates, the FCFS zero-alloc contract —
// is byte-identical with admission disabled:
//
//   - MaxQueue bounds the whole admission queue. An arrival that would
//     exceed it is rejected (ShedReject → the serve layer answers HTTP
//     429 with a Retry-After derived from the measured drain rate) or
//     admitted by shedding the lowest-priority queued request
//     (ShedBestEffort).
//   - MaxPerTenant bounds one tenant's queued requests, so a single
//     whale cannot own the whole bounded queue. Over-cap tenants are
//     always rejected, never traded against other tenants' work.
//
// "Lowest priority" under ShedBestEffort is VTC priority when the
// fairness layer is on: the active tenant with the highest virtual
// token counter (the most-served tenant) loses its newest queued
// request first. With fairness off there are no counters, so the proxy
// is the tenant with the most queued requests (ties to the higher id),
// again shedding its newest request — both rules are deterministic and
// FCFS-preserving for everything that stays.
//
// Recovery paths (Requeue after a GPU failure, Reschedule after an
// eviction, AdmitSpill at a cell barrier) bypass the caps: work the
// fleet already accepted is never dropped by admission control, so the
// queue may transiently exceed MaxQueue during fault recovery.
package sched

import (
	"errors"
	"time"

	"punica/internal/core"
)

// ShedPolicy selects what happens to an arrival that would overflow a
// full admission queue.
type ShedPolicy int

const (
	// ShedReject refuses the new arrival (HTTP 429 at the serve layer).
	ShedReject ShedPolicy = iota
	// ShedBestEffort admits the new arrival by dropping the lowest
	// VTC-priority queued request instead (best-effort tenants lose
	// work first); the arrival is still rejected when it is itself the
	// lowest-priority request.
	ShedBestEffort
)

// String returns the CLI name of the policy.
func (p ShedPolicy) String() string {
	if p == ShedBestEffort {
		return "shed-best-effort"
	}
	return "reject"
}

// ParseShedPolicy maps a config string to a ShedPolicy ("" and
// "reject" → ShedReject, "shed-best-effort" → ShedBestEffort).
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "", "reject":
		return ShedReject, nil
	case "shed-best-effort":
		return ShedBestEffort, nil
	}
	return ShedReject, errors.New("sched: unknown shed policy " + s + " (want reject or shed-best-effort)")
}

// AdmissionConfig bounds the scheduler's admission queue. The zero
// value disables admission control entirely.
type AdmissionConfig struct {
	// MaxQueue caps the total queued requests (0 = unbounded).
	MaxQueue int
	// MaxPerTenant caps one tenant's queued requests (0 = unbounded).
	MaxPerTenant int
	// Policy selects rejection vs best-effort shedding at MaxQueue.
	Policy ShedPolicy
}

// Enabled reports whether any cap is active.
func (c AdmissionConfig) Enabled() bool { return c.MaxQueue > 0 || c.MaxPerTenant > 0 }

// Backpressure sentinels: the serve layer maps both onto HTTP 429 with
// a Retry-After header inside the unified backpressure envelope.
var (
	// ErrQueueFull rejects an arrival because the admission queue is at
	// MaxQueue (and the shed policy found nothing lower-priority to
	// drop).
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrTenantQueueFull rejects an arrival because its tenant already
	// has MaxPerTenant requests queued.
	ErrTenantQueueFull = errors.New("sched: tenant admission queue full")
)

// AdmissionStats counts overload-protection outcomes.
type AdmissionStats struct {
	// Rejected counts arrivals refused at the MaxQueue cap.
	Rejected int64
	// TenantRejected counts arrivals refused at the MaxPerTenant cap.
	TenantRejected int64
	// Shed counts queued requests dropped by ShedBestEffort to admit a
	// higher-priority arrival.
	Shed int64
}

// SetAdmission installs (or, with the zero config, removes) the
// admission caps. Safe to call at any time; an over-cap queue is not
// trimmed retroactively — the caps gate new arrivals only.
func (s *Scheduler) SetAdmission(cfg AdmissionConfig) { s.admission = cfg }

// Admission returns the active admission config.
func (s *Scheduler) Admission() AdmissionConfig { return s.admission }

// AdmissionStats returns the overload-protection counters.
func (s *Scheduler) AdmissionStats() AdmissionStats { return s.admStats }

// queuedOfTenant counts tenant's queued requests. The scan is bounded
// by MaxQueue whenever the cap that needs it is active.
func (s *Scheduler) queuedOfTenant(tenant int64) int {
	if s.fair != nil {
		if tq := s.fair.byTenant[tenant]; tq != nil {
			return len(tq.reqs)
		}
		return 0
	}
	n := 0
	for _, q := range s.queue {
		if q.Tenant == tenant {
			n++
		}
	}
	return n
}

// admitQueued gates r's entry onto the admission queue, shedding a
// lower-priority victim when the policy allows. It returns nil when r
// may queue and a backpressure sentinel when it may not. Callers hold
// the scheduler (it runs inside Dispatch).
func (s *Scheduler) admitQueued(r *core.Request) error {
	if !s.admission.Enabled() {
		return nil
	}
	if s.admission.MaxPerTenant > 0 && s.queuedOfTenant(r.Tenant) >= s.admission.MaxPerTenant {
		s.admStats.TenantRejected++
		return ErrTenantQueueFull
	}
	if s.admission.MaxQueue <= 0 || s.queuedLen() < s.admission.MaxQueue {
		return nil
	}
	if s.admission.Policy != ShedBestEffort {
		s.admStats.Rejected++
		return ErrQueueFull
	}
	victim := s.shedVictim(r)
	if victim == nil {
		// r itself is the lowest-priority request: shedding another
		// tenant's work to admit it would invert the priority order.
		s.admStats.Rejected++
		return ErrQueueFull
	}
	s.removeQueued(victim)
	s.admStats.Shed++
	if s.OnShed != nil {
		s.OnShed(victim)
	}
	return nil
}

// shedVictim picks the queued request ShedBestEffort drops to make room
// for r, or nil when r's own tenant is the lowest-priority one (then r
// is rejected instead). The victim is always its tenant's newest queued
// request, so per-tenant FCFS order is preserved for what remains.
func (s *Scheduler) shedVictim(r *core.Request) *core.Request {
	if s.fair != nil {
		// VTC priority: the active tenant with the highest virtual token
		// counter has been served the most and sheds first. Ties break to
		// the higher tenant id — the same determinism rule as the heap,
		// inverted.
		var worst *tenantQueue
		for _, tq := range s.fair.heap {
			if len(tq.reqs) == 0 {
				continue
			}
			if worst == nil || tq.vt > worst.vt || (tq.vt == worst.vt && tq.tenant > worst.tenant) {
				worst = tq
			}
		}
		if worst == nil || worst.tenant == r.Tenant {
			return nil
		}
		return worst.reqs[len(worst.reqs)-1]
	}
	// FCFS mode has no counters: the proxy for lowest priority is the
	// tenant holding the most queued requests (it degrades the least
	// per shed), ties to the higher tenant id.
	counts := make(map[int64]int, 8)
	for _, q := range s.queue {
		counts[q.Tenant]++
	}
	var worstTenant int64
	worstCount := -1
	for _, q := range s.queue {
		c := counts[q.Tenant]
		if c > worstCount || (c == worstCount && q.Tenant > worstTenant) {
			worstTenant, worstCount = q.Tenant, c
		}
	}
	if worstCount < 0 || worstTenant == r.Tenant {
		return nil
	}
	for i := len(s.queue) - 1; i >= 0; i-- {
		if s.queue[i].Tenant == worstTenant {
			return s.queue[i]
		}
	}
	return nil
}

// CancelQueued drops the queued request with the given id — its user
// cancelled or gave up before it was placed — and reports whether it
// was waiting. A request already on a GPU is the caller's to cancel
// there.
func (s *Scheduler) CancelQueued(id int64) bool {
	if s.fair == nil {
		return s.cancelIn(s.queue, id)
	}
	for _, tq := range s.fair.heap {
		if s.cancelIn(tq.reqs, id) {
			return true
		}
	}
	return false
}

// cancelIn removes the request with the given id if queue holds it.
func (s *Scheduler) cancelIn(queue []*core.Request, id int64) bool {
	for _, q := range queue {
		if q.ID == id {
			s.removeQueued(q)
			return true
		}
	}
	return false
}

// removeQueued drops one queued request from whichever admission queue
// is active (the shed and cancel paths; the request never reaches a
// GPU).
func (s *Scheduler) removeQueued(victim *core.Request) {
	if s.fair != nil {
		tq := s.fair.byTenant[victim.Tenant]
		if tq == nil {
			return
		}
		for i := len(tq.reqs) - 1; i >= 0; i-- {
			if tq.reqs[i] == victim {
				copy(tq.reqs[i:], tq.reqs[i+1:])
				tq.reqs[len(tq.reqs)-1] = nil
				tq.reqs = tq.reqs[:len(tq.reqs)-1]
				s.fair.count--
				if len(tq.reqs) == 0 && tq.pos >= 0 {
					s.fair.heapRemove(tq)
				}
				return
			}
		}
		return
	}
	for i := range s.queue {
		if s.queue[i] == victim {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = nil
			s.queue = s.queue[:len(s.queue)-1]
			return
		}
	}
}

// noteDrain feeds the drain-rate estimator with one successful
// placement at simulated time now. The EWMA over inter-placement gaps
// tracks the current service rate through load swings without storing a
// window.
func (s *Scheduler) noteDrain(now time.Duration) {
	if s.lastPlaced > 0 && now > s.lastPlaced {
		sample := float64(time.Second) / float64(now-s.lastPlaced)
		if s.drainRate <= 0 {
			s.drainRate = sample
		} else {
			const alpha = 0.2
			s.drainRate += alpha * (sample - s.drainRate)
		}
	}
	if now > s.lastPlaced {
		s.lastPlaced = now
	}
}

// DrainRate returns the estimated service rate in placements per
// simulated second (0 until two placements have been observed).
func (s *Scheduler) DrainRate() float64 { return s.drainRate }

// RetryAfterHint estimates how long (in simulated time) a rejected
// client should wait before retrying: the time the measured drain rate
// needs to free n queue slots, clamped to [100ms, 5m]. With no drain
// observed yet it answers one second — the queue may simply never have
// been contended.
func (s *Scheduler) RetryAfterHint(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	if s.drainRate <= 0 {
		return time.Second
	}
	d := time.Duration(float64(n) / s.drainRate * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}
