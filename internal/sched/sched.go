// Package sched implements Punica's cluster scheduler (§5.1, §5.3)
// behind a pluggable placement-policy framework: the scheduler owns the
// invariants — admissibility, FCFS queueing, eviction re-scheduling,
// periodic consolidation, scale hints — while a Policy orders the
// admissible choices. PaperPolicy (the default) reproduces the paper's
// rule decision-for-decision: route to the GPU with the largest working
// set that still has batch slots and KvCache room, ties broken by
// highest GPU UUID. AdapterAffinity and RankAware trade that rule for
// adapter locality (§5.2 load costs) and SGMV rank grouping (§4).
//
// Every scheduling decision works from one batched Snapshot per GPU
// instead of per-GPU WorkingSet/CanAdmit call pairs — for remote
// workers each of those pairs was two HTTP round-trips.
package sched

import (
	"errors"
	"sort"
	"time"

	"punica/internal/core"
	"punica/internal/invariant"
	"punica/internal/lora"
)

// Worker is the scheduler's view of one GPU runner: everything §5.1/§5.3
// scheduling needs, and nothing execution-specific. *core.Engine
// implements it for in-process serving; internal/remote's client
// implements it over HTTP for runners on other machines (Fig. 2).
type Worker interface {
	// Snapshot returns the worker's complete scheduling state — working
	// set, batch cap, KvCache headroom, resident adapters with ranks and
	// pin accounting — in one batched call. Admission (§5.1's CanAdmit)
	// is evaluated scheduler-side from the snapshot.
	Snapshot() core.Snapshot
	// Enqueue assigns the request to the runner.
	Enqueue(r *core.Request, now time.Duration) error
	// Cancel removes a request, returning its state (nil if unknown).
	Cancel(id int64, now time.Duration) *core.Request
	// EvictNewest removes the most recently arrived request (§5.3).
	EvictNewest(now time.Duration) *core.Request
}

// Versioned is an optional Worker extension for snapshot caching: a
// monotonic counter that changes whenever the worker's Snapshot would.
// The scheduler keeps one cached Snapshot per GPU and revalidates it by
// comparing StateVersion — equal versions mean the cached snapshot is
// bit-identical to a fresh fetch, so per-decision state assembly costs a
// counter read instead of a rebuild. *core.Engine implements it; workers
// without it (e.g. remote clients, whose freshness is handled by the
// HTTP conditional-GET layer) are snapshotted on every decision exactly
// as before.
type Versioned interface {
	StateVersion() uint64
}

// Crasher is an optional Worker extension: draining whatever request
// state is still reachable once the worker is declared failed.
// In-process engines return their full working set (the driver process
// outlives the simulated GPU); a remote client whose runner machine died
// returns nothing, and the caller recovers from its own placement
// records instead.
type Crasher interface {
	// Crash drops every resident request and returns them for
	// re-dispatch, along with the KvCache context tokens whose prefill
	// must be recomputed.
	Crash(now time.Duration) (lost []*core.Request, lostKVTokens int)
}

// GPU pairs a worker with the identity the scheduler uses for
// tie-breaking ("the one that has the highest GPU UUID gets the new
// request", §5.1).
type GPU struct {
	UUID   string
	Engine Worker
	// Role is the worker's disaggregation role. It mirrors the
	// authoritative core.Snapshot.Role so pool scans (which GPUs form
	// the decode pool?) cost no snapshot fetch; constructors set it from
	// the engine config, and the zero value (RoleUnified) preserves the
	// paper's single-pool behaviour exactly.
	Role core.Role

	// snap is the scheduler's cached snapshot of this worker, valid
	// while snapValid is set and the worker's StateVersion still equals
	// snap.Version. Owned by the scheduler; see Scheduler.snapshotOf.
	snap      core.Snapshot
	snapValid bool
}

// Scheduler holds the global view of all GPUs (§5.1: "Punica scheduler
// has a global view of the state of all the GPUs").
type Scheduler struct {
	gpus   []*GPU
	queue  []*core.Request // FCFS wait queue, sorted by (Arrival, ID)
	policy Policy

	// LightlyLoadedBelow, when > 0, overrides the light-load threshold
	// fleet-wide. At the default 0 each GPU derives its own threshold
	// from its snapshot (a quarter of its batch cap, at least 1), so
	// mixed-capacity fleets classify load correctly per GPU.
	LightlyLoadedBelow int

	// DisableSnapshotCache forces a fresh Snapshot fetch on every
	// decision, bypassing version revalidation. It exists for the
	// equivalence tests that prove cached and uncached scheduling make
	// identical decisions; production paths leave it false.
	DisableSnapshotCache bool

	// Reusable decision buffers: candidate lists are assembled into
	// these instead of fresh slices, so Dispatch/DrainQueue/Reschedule
	// allocate nothing in steady state. candBuf serves placement scans
	// (candidates/decodeCandidates — never both in flight), targetBuf
	// the consolidation target scans nested inside a sources walk.
	candBuf   []Candidate
	targetBuf []Candidate

	// queuePeak tracks the deepest the FCFS queue has been, counted at
	// every growth site (arrival overflow, eviction reschedule, fault
	// requeue, migration fallback) — not just arrivals.
	queuePeak int

	// TraceMigration, when non-nil, observes every successful
	// consolidation move (victim, source, destination) — the golden-trace
	// tests pin §5.1 consolidation decisions through it.
	TraceMigration func(r *core.Request, from, to *GPU)

	// OverlapPrefetch, when set, warms the adapter of the next waiting
	// queue head on its best-ranked candidate GPU whenever admission
	// leaves requests queued: a cold adapter's staging (the full
	// registry → SSD → RAM → HBM cascade in tiered stores) overlaps the
	// prefill of requests already running instead of starting only when
	// the head is finally admitted — the CaraServe overlap rule,
	// generalizing the disaggregation-only Prefetcher path to unified
	// fleets. Off by default: prefetch touches placement-visible LRU
	// state, so golden traces stay byte-identical unless opted in.
	OverlapPrefetch bool

	// fair, when non-nil, replaces the global FCFS queue with the VTC
	// per-tenant admission layer (fair.go). nil — the default — keeps
	// every legacy code path byte-identical.
	fair *fairQueue

	// tenantStalls attributes AdapterStalls to the tenant whose
	// placement stalled (allocated eagerly so the zero-alloc dispatch
	// path never constructs it; written only on stall).
	tenantStalls map[int64]int64

	// OnShed, when non-nil, observes every queued request dropped by the
	// ShedBestEffort admission policy (admission.go). The serve layer
	// uses it to fail the victim's stream so its HTTP handler can answer
	// 429. Called while the scheduler is being mutated: observers must
	// not re-enter the scheduler.
	OnShed func(r *core.Request)

	// admission bounds the admission queue (admission.go); the zero
	// config — the default — disables every cap.
	admission AdmissionConfig
	admStats  AdmissionStats

	// drainRate/lastPlaced feed the Retry-After estimator: an EWMA of
	// the placement rate in requests per simulated second.
	drainRate  float64
	lastPlaced time.Duration

	stats Stats
}

// Stats counts scheduler activity.
type Stats struct {
	Dispatched int64
	Queued     int64
	Migrations int64
	// AdapterStalls counts placements rejected because the target's
	// adapter store was full with every resident adapter pinned (§5.2
	// backpressure). The request waits on the FCFS queue until running
	// requests finish and release their pins.
	AdapterStalls int64
	// GPUFailures counts forced removals via FailGPU; Recovered counts
	// requests re-admitted through Requeue after losing their GPU.
	GPUFailures int64
	Recovered   int64
	// KVMigrations counts prefill→decode handoffs that landed on a
	// decode GPU via ExportKV/ImportKV; KVMigratedBytes the KvCache
	// payload they carried. KVMigrationFallbacks counts handoffs that
	// found no decode room and fell back (re-import on the source, or
	// FCFS requeue with recompute as the last resort).
	KVMigrations         int64
	KVMigratedBytes      int64
	KVMigrationFallbacks int64
	// AdapterPrefetches counts decode-target adapter loads started while
	// the request's prefill was still running (the CaraServe-style
	// cold-start overlap).
	AdapterPrefetches int64
	// SpillsIn counts requests admitted from another cell's overflow via
	// AdmitSpill; SpillsOut counts queued requests handed away through
	// StealNewest. Both move only at epoch barriers in cell-sharded runs.
	SpillsIn  int64
	SpillsOut int64
}

// New builds a scheduler over the given GPUs with the paper's §5.1
// placement policy.
func New(gpus []*GPU) *Scheduler {
	return NewWithPolicy(gpus, nil)
}

// NewWithPolicy builds a scheduler with an explicit placement policy
// (nil means PaperPolicy).
func NewWithPolicy(gpus []*GPU, p Policy) *Scheduler {
	if p == nil {
		p = PaperPolicy{}
	}
	return &Scheduler{gpus: gpus, policy: p, tenantStalls: make(map[int64]int64)}
}

// Policy returns the active placement policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// GPUs returns the managed GPUs.
func (s *Scheduler) GPUs() []*GPU { return s.gpus }

// AddGPU brings a newly provisioned GPU under management (§5.1's cloud
// scale-up: "If no lightly loaded GPU exists in the cluster, Punica
// should request more GPUs").
func (s *Scheduler) AddGPU(g *GPU) { s.gpus = append(s.gpus, g) }

// RemoveGPU releases an idle GPU back to the provider (§5.1: "Punica can
// return the GPU resources for GPU servers with no load"). It refuses
// GPUs that still hold work and reports whether the GPU was removed.
func (s *Scheduler) RemoveGPU(uuid string) (*GPU, bool) {
	for i, g := range s.gpus {
		if g.UUID != uuid {
			continue
		}
		if workingSetOf(g.Engine) != 0 {
			return nil, false
		}
		s.gpus = append(s.gpus[:i], s.gpus[i+1:]...)
		return g, true
	}
	return nil, false
}

// FailGPU forcibly removes a GPU that died (spot preemption, runner
// crash, partition). Unlike RemoveGPU it does not refuse busy GPUs: the
// GPU is gone whether or not it held work. Whatever request state is
// still reachable is salvaged through the optional Crasher extension and
// returned live — for in-process engines that is the full working set;
// for a dead remote runner it is empty and the caller recovers from its
// own records. lostKVTokens is the KvCache context the salvage reported
// destroyed (the prefill-recomputation bill). The caller re-admits the
// lost requests via Requeue.
func (s *Scheduler) FailGPU(uuid string, now time.Duration) (g *GPU, lost []*core.Request, lostKVTokens int, ok bool) {
	for i, g := range s.gpus {
		if g.UUID != uuid {
			continue
		}
		s.gpus = append(s.gpus[:i], s.gpus[i+1:]...)
		s.stats.GPUFailures++
		var lost []*core.Request
		var lostKV int
		if cw, ok := g.Engine.(Crasher); ok {
			lost, lostKV = cw.Crash(now)
		}
		return g, lost, lostKV, true
	}
	return nil, nil, 0, false
}

// Requeue re-admits a request recovered from a failed GPU: placed
// immediately when the FCFS queue is empty and capacity exists, queued
// in arrival order otherwise. It is the §5.3 eviction path without the
// migration accounting — recoveries count under Stats.Recovered.
func (s *Scheduler) Requeue(r *core.Request, now time.Duration) (*GPU, error) {
	s.stats.Recovered++
	if s.queuedLen() == 0 {
		g, err := s.tryPlace(r, nil, now)
		if err != nil {
			return nil, err
		}
		if g != nil {
			return g, nil
		}
	}
	s.enqueue(r)
	return nil, nil
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// QueueLen returns the number of requests waiting for capacity.
func (s *Scheduler) QueueLen() int { return s.queuedLen() }

// QueuePeak returns the deepest the FCFS wait queue has been. Unlike a
// caller sampling QueueLen at arrival time, it observes every growth
// site — fault-recovery requeues and migration fallbacks included.
func (s *Scheduler) QueuePeak() int { return s.queuePeak }

// noteQueueDepth records the queue depth after a growth. Every queue
// growth site funnels through here, so it doubles as the FCFS-ordering
// checkpoint under the punica_invariants build.
func (s *Scheduler) noteQueueDepth() {
	if len(s.queue) > s.queuePeak {
		s.queuePeak = len(s.queue)
	}
	if invariant.Enabled {
		for i := 1; i < len(s.queue); i++ {
			p, q := s.queue[i-1], s.queue[i]
			if p.Arrival > q.Arrival || (p.Arrival == q.Arrival && p.ID > q.ID) {
				invariant.Failf("sched: FCFS queue out of order at %d: (%v, id %d) queued before (%v, id %d)",
					i, p.Arrival, p.ID, q.Arrival, q.ID)
			}
		}
	}
}

// snapshotOf returns the worker's current snapshot, served from the
// per-GPU cache when the worker's StateVersion proves it unchanged.
// The returned pointer aliases the cache slot: it is valid for the
// current scheduling decision and is overwritten by the next fetch
// after the worker mutates. Multi-step passes that mirror their own
// mutations (Consolidate) copy the value instead of retaining the
// pointer.
func (s *Scheduler) snapshotOf(g *GPU) *core.Snapshot {
	if invariant.Enabled && g.snapValid {
		// The version counter is the cache's proof of freshness; if it
		// ever moved backwards, stale snapshots would validate forever.
		if v, ok := g.Engine.(Versioned); ok && v.StateVersion() < g.snap.Version {
			invariant.Failf("sched: engine version moved backwards: %d < cached %d",
				v.StateVersion(), g.snap.Version)
		}
	}
	if g.snapValid && !s.DisableSnapshotCache {
		if v, ok := g.Engine.(Versioned); ok && v.StateVersion() == g.snap.Version {
			return &g.snap
		}
	}
	g.snap = g.Engine.Snapshot()
	g.snapValid = true
	return &g.snap
}

// lightThreshold returns the working-set count below which a GPU counts
// as lightly loaded, derived per GPU from its snapshot unless the
// fleet-wide override is set.
func (s *Scheduler) lightThreshold(snap *core.Snapshot) int {
	if s.LightlyLoadedBelow > 0 {
		return s.LightlyLoadedBelow
	}
	t := snap.MaxBatch / 4
	if t < 1 {
		t = 1
	}
	return t
}

// candidates snapshots each GPU once, keeps those that satisfy both
// §5.1 admission constraints for r, and asks the policy to order them
// best-first. exclude (when non-nil) is skipped, as are decode-pool
// GPUs — their snapshots would refuse CanAdmit anyway, and skipping
// them up front saves one state fetch per decode GPU per placement
// (an HTTP round-trip each for remote workers).
func (s *Scheduler) candidates(r *core.Request, exclude *GPU) []Candidate {
	fit := s.candBuf[:0]
	for _, g := range s.gpus {
		if g == exclude || g.Role == core.RoleDecode {
			continue
		}
		snap := s.snapshotOf(g)
		if !snap.CanAdmit(r) {
			continue
		}
		fit = append(fit, Candidate{GPU: g, Snap: snap})
	}
	s.candBuf = fit
	s.policy.RankPlacement(r, fit)
	return fit
}

// tryPlace enqueues r on the best admitting GPU, falling through to the
// next candidate when a GPU's adapter store is full with all adapters
// pinned (§5.2 backpressure). It returns (nil, nil) when no GPU can take
// the request — the caller queues it — and counts an AdapterStall when
// at least one GPU had batch and KvCache room but no adapter-store room.
func (s *Scheduler) tryPlace(r *core.Request, exclude *GPU, now time.Duration) (*GPU, error) {
	g, stalled, err := s.place(r, exclude, now)
	if stalled {
		s.chargeStall(r)
	}
	return g, err
}

// place is tryPlace without the stall accounting: it additionally
// reports whether any GPU refused r solely for adapter-store room, and
// leaves charging to the caller. The fairness drain needs the split —
// it attempts every active tenant per pass, but only the first blocked
// one is genuinely stalled (the rest are queued behind it), matching
// the FCFS path where only the blocking head is ever charged.
func (s *Scheduler) place(r *core.Request, exclude *GPU, now time.Duration) (*GPU, bool, error) {
	stalled := false
	for _, c := range s.candidates(r, exclude) {
		err := c.GPU.Engine.Enqueue(r, now)
		if err == nil {
			s.stats.Dispatched++
			s.noteDrain(now)
			return c.GPU, false, nil
		}
		if errors.Is(err, lora.ErrStoreFull) {
			stalled = true
			continue
		}
		return nil, false, err
	}
	return nil, stalled, nil
}

// chargeStall books one adapter-stall backpressure event against r's
// tenant.
func (s *Scheduler) chargeStall(r *core.Request) {
	s.stats.AdapterStalls++
	s.tenantStalls[r.Tenant]++
}

// Dispatch routes a new request: to a GPU when one has capacity,
// otherwise onto the FCFS queue. It reports the chosen GPU (nil if
// queued).
//
//punica:zeroalloc per-request routing must not allocate beyond amortised queue growth
func (s *Scheduler) Dispatch(r *core.Request, now time.Duration) (*GPU, error) {
	if s.fair != nil {
		return s.dispatchFair(r, now)
	}
	// FCFS across the cluster: a new request may not overtake queued
	// ones.
	if len(s.queue) > 0 {
		if err := s.admitQueued(r); err != nil {
			return nil, err
		}
		s.queue = append(s.queue, r)
		s.stats.Queued++
		s.noteQueueDepth()
		return nil, nil
	}
	g, err := s.tryPlace(r, nil, now)
	if err != nil {
		return nil, err
	}
	if g == nil {
		if err := s.admitQueued(r); err != nil {
			return nil, err
		}
		s.queue = append(s.queue, r)
		s.stats.Queued++
		s.noteQueueDepth()
		// r is the new queue head and is stalled: start its adapter
		// staging now so the load overlaps the running prefills.
		s.overlapPrefetchHead(now)
		return nil, nil
	}
	// Disaggregated fleets overlap the decode-side adapter load with the
	// prefill now starting: warm the intended decode target. No-op (no
	// decode pool) on unified fleets.
	s.prefetchDecodeAdapter(r, g, now)
	return g, nil
}

// Placement records one queue drain: which request landed on which GPU.
type Placement struct {
	Request *core.Request
	GPU     *GPU
}

// DrainQueue dispatches queued requests FCFS while capacity exists
// ("When some GPUs become available in the future, queued requests are
// scheduled in a first-come-first-serve manner", §5.1). It returns the
// placements made.
func (s *Scheduler) DrainQueue(now time.Duration) ([]Placement, error) {
	if s.fair != nil {
		return s.drainFair(now)
	}
	var placed []Placement
	for len(s.queue) > 0 {
		g, err := s.tryPlace(s.queue[0], nil, now)
		if err != nil {
			return placed, err
		}
		if g == nil {
			// No capacity (or adapter stores saturated): the head stays
			// queued, preserving FCFS, until a completion frees room.
			break
		}
		placed = append(placed, Placement{Request: s.queue[0], GPU: g})
		s.queue = s.queue[1:]
	}
	s.overlapPrefetchHead(now)
	return placed, nil
}

// overlapPrefetchHead warms the next waiting request's adapter on its
// best-ranked candidate GPU (falling through refusals in rank order,
// like the decode-pool prefetch). No-op unless OverlapPrefetch is on
// and a head is actually waiting.
func (s *Scheduler) overlapPrefetchHead(now time.Duration) {
	if !s.OverlapPrefetch {
		return
	}
	var r *core.Request
	if s.fair != nil {
		if len(s.fair.heap) == 0 {
			return
		}
		r = s.fair.top().head()
	} else {
		if len(s.queue) == 0 {
			return
		}
		r = s.queue[0]
	}
	// A stalled head's candidates are full by definition, so scan every
	// placement-eligible GPU (no CanAdmit filter) in policy rank order:
	// the warm-up targets where admission will most likely land.
	fit := s.candBuf[:0]
	for _, g := range s.gpus {
		if g.Role == core.RoleDecode {
			continue
		}
		fit = append(fit, Candidate{GPU: g, Snap: s.snapshotOf(g)})
	}
	s.candBuf = fit
	s.policy.RankPlacement(r, fit)
	for _, c := range fit {
		p, ok := c.GPU.Engine.(Prefetcher)
		if !ok {
			// Mixed fleet: a lower-ranked candidate may still take hints.
			continue
		}
		if w, ok := c.GPU.Engine.(AdapterWarmth); ok && w.AdapterResident(r.Model) {
			// Already warm (or mid-load) on the best-ranked target: the
			// overlap goal is met. Re-issuing the hint every drain pass
			// would inflate AdapterPrefetches and invalidate cached
			// snapshots for no state change.
			return
		}
		if p.PrefetchAdapter(r.Model, now) {
			s.stats.AdapterPrefetches++
			return
		}
	}
}

// Reschedule handles a request evicted for memory (§5.3): "The scheduling
// for the evicted request is the same as adding a new request", except it
// must not land back on the GPU it was just evicted from.
func (s *Scheduler) Reschedule(r *core.Request, from *GPU, now time.Duration) (*GPU, error) {
	if s.queuedLen() == 0 {
		g, err := s.tryPlace(r, from, now)
		if err != nil {
			return nil, err
		}
		if g != nil {
			s.stats.Migrations++
			return g, nil
		}
	}
	s.enqueue(r)
	return nil, nil
}

// StealNewest removes up to n of the youngest queued requests — the
// tail of the FCFS queue — and returns them in arrival order. Cell
// routers call it at epoch barriers to spill a congested cell's
// overflow to a lightly-loaded one; taking from the tail preserves
// FCFS for everything that stays (the head keeps its place, and the
// stolen requests are the ones that would have waited longest here).
func (s *Scheduler) StealNewest(n int) []*core.Request {
	if s.fair != nil {
		// Under the VTC layer queue order is per-tenant, not global: a
		// "newest" cut would silently bias which tenants spill. Cells
		// keep their fairness-managed overflow local instead.
		return nil
	}
	if n <= 0 || len(s.queue) == 0 {
		return nil
	}
	if n > len(s.queue) {
		n = len(s.queue)
	}
	cut := len(s.queue) - n
	stolen := append([]*core.Request(nil), s.queue[cut:]...)
	for i := cut; i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = s.queue[:cut]
	s.stats.SpillsOut += int64(n)
	return stolen
}

// AdmitSpill admits a request spilled from another cell: placed
// immediately when the local FCFS queue is empty and capacity exists,
// otherwise inserted in arrival order (spilled requests carry their
// original arrival time, so they take their fair FCFS place rather
// than the queue tail).
func (s *Scheduler) AdmitSpill(r *core.Request, now time.Duration) (*GPU, error) {
	s.stats.SpillsIn++
	if s.queuedLen() == 0 {
		g, err := s.tryPlace(r, nil, now)
		if err != nil {
			return nil, err
		}
		if g != nil {
			return g, nil
		}
	}
	s.enqueue(r)
	return nil, nil
}

// enqueueFCFS inserts r into the wait queue in arrival order. The queue
// is always sorted by (Arrival, ID) — Dispatch appends arrivals in
// order and this path binary-searches the slot — so insertion is
// O(log n) compare plus one copy, not a full re-sort per insert.
func (s *Scheduler) enqueueFCFS(r *core.Request) {
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.Arrival != r.Arrival {
			return q.Arrival > r.Arrival
		}
		return q.ID > r.ID
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = r
	s.stats.Queued++
	s.noteQueueDepth()
}

// Consolidate migrates requests away from lightly-loaded GPUs onto busier
// ones with spare capacity (§3: "For old requests, Punica migrates them
// periodically to consolidate the workloads, thereby freeing up GPU
// resources"). Migration uses the §5.3 cancel-and-re-add primitive: the
// victim's KvCache is released at the source and recomputed at the
// destination. Returns the number of migrated requests.
//
// The pass takes one snapshot per GPU up front and mirrors its own
// enqueues/evictions into those snapshots, so admission and
// strictly-busier checks stay exact without re-polling workers — the
// pre-framework implementation re-read WorkingSet inside comparators,
// O(n²) calls that were each a network round-trip for remote workers.
func (s *Scheduler) Consolidate(now time.Duration) int {
	moved := 0
	snaps := make(map[*GPU]*core.Snapshot, len(s.gpus))
	sources := make([]Candidate, 0, len(s.gpus))
	for _, g := range s.gpus {
		// Copy out of the version cache: the pass mirrors its own
		// mutations into these snapshots (NoteEnqueued/NoteRemoved),
		// which must not contaminate the cache — the underlying engines
		// bump their versions, so the cache refreshes naturally on the
		// next decision.
		snap := *s.snapshotOf(g)
		snaps[g] = &snap
		sources = append(sources, Candidate{GPU: g, Snap: &snap})
	}
	s.policy.RankSources(sources)
	for _, src := range sources {
		if src.GPU.Role == core.RoleDecode {
			// Decode-pool GPUs never drain through the cancel-and-
			// recompute path: their residents carry migrated KvCache
			// whose prefill ran elsewhere, and recomputing it would
			// reintroduce the work disaggregation moved off this pool.
			continue
		}
		srcSnap := src.Snap
		ws := srcSnap.WorkingSet
		if ws == 0 || ws >= s.lightThreshold(srcSnap) {
			continue
		}
		// Move the source's newest requests first (FCFS preservation,
		// §5.3) while a strictly busier target can take them.
		for srcSnap.WorkingSet > 0 {
			victim := src.GPU.Engine.EvictNewest(now)
			if victim == nil {
				break
			}
			srcSnap.NoteRemoved(victim)
			dst := s.busierTarget(victim, src.GPU, snaps)
			if dst != nil {
				err := dst.Engine.Enqueue(victim, now)
				if err == nil {
					snaps[dst].NoteEnqueued(victim)
					moved++
					s.stats.Migrations++
					if s.TraceMigration != nil {
						s.TraceMigration(victim, src.GPU, dst)
					}
					continue
				}
				if !errors.Is(err, lora.ErrStoreFull) {
					panic("sched: consolidation enqueue failed: " + err.Error())
				}
				// Destination store saturated: treat as no destination.
				s.stats.AdapterStalls++
			}
			// Nothing can take it: put it back and stop. The victim's
			// adapter is still resident on the source, so re-acquiring
			// cannot hit store backpressure; queue it if it somehow does.
			if err := src.GPU.Engine.Enqueue(victim, now); err != nil {
				if !errors.Is(err, lora.ErrStoreFull) {
					panic("sched: re-enqueue on source failed: " + err.Error())
				}
				s.chargeStall(victim)
				s.enqueue(victim)
			} else {
				srcSnap.NoteEnqueued(victim)
			}
			break
		}
	}
	return moved
}

// busierTarget finds a destination strictly busier than src (so
// consolidation converges) that can admit r, delegating the preference
// among valid targets to the policy.
func (s *Scheduler) busierTarget(r *core.Request, src *GPU, snaps map[*GPU]*core.Snapshot) *GPU {
	srcWS := snaps[src].WorkingSet
	cands := s.targetBuf[:0]
	for _, g := range s.gpus {
		if g == src {
			continue
		}
		snap := snaps[g]
		if snap.WorkingSet <= srcWS || !snap.CanAdmit(r) {
			continue
		}
		cands = append(cands, Candidate{GPU: g, Snap: snap})
	}
	s.targetBuf = cands
	if len(cands) == 0 {
		return nil
	}
	return s.policy.PickTarget(r, cands)
}

// NeedMoreGPUs reports the §5.1 scale-up condition: no lightly-loaded GPU
// exists (every GPU is near capacity) — in a cloud setting Punica
// "should request more GPUs".
func (s *Scheduler) NeedMoreGPUs() bool {
	for _, g := range s.gpus {
		snap := s.snapshotOf(g)
		if snap.WorkingSet < s.lightThreshold(snap) {
			return false
		}
	}
	return true
}

// ReleasableGPUs returns GPUs with no load, which "Punica can return ...
// for GPU servers with no load" (§5.1).
func (s *Scheduler) ReleasableGPUs() []*GPU {
	var idle []*GPU
	for _, g := range s.gpus {
		if workingSetOf(g.Engine) == 0 {
			idle = append(idle, g)
		}
	}
	return idle
}

// workingSetOf reads a worker's working-set count as cheaply as the
// worker allows: the scalar accessor when one exists (*core.Engine — a
// length read; remote clients answer it from one state fetch too),
// falling back to a full snapshot. Idle scans (RemoveGPU, releasable-GPU
// sweeps) need only this one number, so materialising adapter state for
// them was pure waste.
func workingSetOf(w Worker) int {
	if ws, ok := w.(interface{ WorkingSet() int }); ok {
		return ws.WorkingSet()
	}
	return w.Snapshot().WorkingSet
}
