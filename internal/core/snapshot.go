package core

import "punica/internal/lora"

// Snapshot is a worker's complete scheduling state batched into one
// view: the §5.1 admission constraints (working set, batch cap, KvCache
// headroom) plus the §5.2 adapter-store state (resident adapters with
// ranks, pin accounting) that placement policies rank on.
//
// One Snapshot fetch per scheduling decision replaces the per-GPU
// WorkingSet/CanAdmit call pairs the scheduler used to issue — for
// remote workers each of those was a separate HTTP round-trip.
type Snapshot struct {
	// Version is the worker's mutation counter at snapshot time (see
	// Engine.StateVersion): equal versions guarantee an identical
	// snapshot, which is what makes scheduler-side caching sound.
	Version uint64

	// Role is the worker's disaggregation role; schedulers route new
	// (prefill-needing) requests only to workers whose role accepts
	// them, and KV migrations only to the decode pool.
	Role Role

	WorkingSet  int
	ActiveBatch int
	MaxBatch    int

	// FreeKVPages is the uncommitted KvCache headroom: the pool's free
	// pages minus pages already reserved for pending requests.
	FreeKVPages  int
	TotalKVPages int
	// PageSize is the pool's token slots per page, so admission page
	// math can run scheduler-side without a round-trip.
	PageSize int
	// PagedKV selects the reservation model: paged workers reserve the
	// current context, contiguous workers the whole worst case.
	PagedKV bool

	// Adapters lists the resident LoRA adapters, most recently used
	// first (nil for backbone-only workers).
	Adapters           []lora.AdapterState
	StoreCapacityBytes int64
	StoreUsedBytes     int64
	StorePinnedBytes   int64
}

// PagesFor returns how many pages n tokens occupy under the worker's
// page size (zero when the snapshot carries no page geometry).
func (s *Snapshot) PagesFor(n int) int {
	if n <= 0 || s.PageSize <= 0 {
		return 0
	}
	return (n + s.PageSize - 1) / s.PageSize
}

// kvNeed returns the token reservation r requires under the worker's
// memory model, mirroring the engine's admission accounting.
func (s *Snapshot) kvNeed(r *Request) int {
	if s.PagedKV {
		return r.ContextLen()
	}
	return r.PromptLen + r.OutputLen
}

// CanAdmit evaluates the §5.1 admission constraints — batch-slot and
// KvCache room — from snapshot state alone, decision-for-decision
// equivalent to Engine.CanAdmit at the time the snapshot was taken.
// Decode-role workers never admit on this path; they receive work only
// through KV imports (see CanImport).
func (s *Snapshot) CanAdmit(r *Request) bool {
	if !s.Role.AcceptsNew() {
		return false
	}
	if s.WorkingSet >= s.MaxBatch {
		return false
	}
	return s.PagesFor(s.kvNeed(r)) <= s.FreeKVPages
}

// CanImport reports whether the worker could land a KV migration of r
// right now: a batch slot plus page-exact room for the request's
// current context. Any role can physically import; the router chooses
// decode-pool targets.
func (s *Snapshot) CanImport(r *Request) bool {
	if s.WorkingSet >= s.MaxBatch {
		return false
	}
	return s.PagesFor(r.ContextLen()) <= s.FreeKVPages
}

// Adapter returns the resident state of adapter id, if any.
func (s *Snapshot) Adapter(id lora.ModelID) (lora.AdapterState, bool) {
	for _, a := range s.Adapters {
		if a.ID == id {
			return a, true
		}
	}
	return lora.AdapterState{}, false
}

// HasAdapter reports whether adapter id is warm on the worker.
func (s *Snapshot) HasAdapter(id lora.ModelID) bool {
	_, ok := s.Adapter(id)
	return ok
}

// NoteEnqueued updates the snapshot to reflect r landing on the worker,
// so a multi-step scheduling pass (consolidation) keeps its one-shot
// view exact across its own mutations without re-polling workers. Only
// the §5.1 admission state is mirrored; adapter-store contents are left
// as fetched (warm residency outlives request churn anyway).
func (s *Snapshot) NoteEnqueued(r *Request) {
	s.WorkingSet++
	s.FreeKVPages -= s.PagesFor(s.kvNeed(r))
}

// NoteRemoved is NoteEnqueued's inverse: r left the worker via cancel
// or eviction, releasing its batch slot and KvCache reservation.
func (s *Snapshot) NoteRemoved(r *Request) {
	s.WorkingSet--
	s.FreeKVPages += s.PagesFor(s.kvNeed(r))
}

// StoreFreeBytes returns the adapter-store bytes not holding any
// adapter; a cold load that fits here evicts nothing.
func (s *Snapshot) StoreFreeBytes() int64 { return s.StoreCapacityBytes - s.StoreUsedBytes }

// StoreReclaimableBytes returns the bytes a cold load could obtain at
// most: free space plus unpinned (evictable) residents. A load larger
// than this stalls with ErrStoreFull.
func (s *Snapshot) StoreReclaimableBytes() int64 { return s.StoreCapacityBytes - s.StorePinnedBytes }
