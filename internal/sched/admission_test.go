package sched

import (
	"errors"
	"testing"
	"time"

	"punica/internal/core"
	"punica/internal/hw"
	"punica/internal/lora"
	"punica/internal/models"
)

// admissionFleet builds a tiny fleet whose capacity saturates quickly:
// one GPU with maxBatch slots.
func admissionFleet(t *testing.T, maxBatch int) (*Scheduler, *GPU) {
	t.Helper()
	sys := core.PunicaSystem()
	sys.MaxBatch = maxBatch
	eng := core.NewEngine(core.Config{
		System: sys,
		GPU:    hw.A100(),
		Model:  models.Llama2_7B(),
		Rank:   16,
	})
	g := &GPU{UUID: "gpu-0", Engine: eng}
	return New([]*GPU{g}), g
}

func admReq(id int64, tenant int64, arrival time.Duration) *core.Request {
	return &core.Request{
		ID:        id,
		Model:     lora.ModelID(1),
		PromptLen: 16,
		OutputLen: 16,
		Arrival:   arrival,
		Tenant:    tenant,
	}
}

// fillFleet saturates the single GPU so subsequent dispatches queue.
func fillFleet(t *testing.T, s *Scheduler, maxBatch int) {
	t.Helper()
	for i := 0; i < maxBatch; i++ {
		g, err := s.Dispatch(admReq(int64(i+1), 0, 0), 0)
		if err != nil || g == nil {
			t.Fatalf("warm-up dispatch %d: g=%v err=%v", i, g, err)
		}
	}
}

func TestAdmissionDisabledUnbounded(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	fillFleet(t, s, 1)
	for i := 0; i < 100; i++ {
		if _, err := s.Dispatch(admReq(int64(100+i), 0, time.Duration(i)), 0); err != nil {
			t.Fatalf("dispatch with admission off: %v", err)
		}
	}
	if got := s.QueueLen(); got != 100 {
		t.Fatalf("queue len = %d, want 100", got)
	}
	if st := s.AdmissionStats(); st != (AdmissionStats{}) {
		t.Fatalf("admission stats moved with admission off: %+v", st)
	}
}

func TestAdmissionRejectAtMaxQueue(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	s.SetAdmission(AdmissionConfig{MaxQueue: 3, Policy: ShedReject})
	fillFleet(t, s, 1)
	for i := 0; i < 3; i++ {
		if _, err := s.Dispatch(admReq(int64(100+i), 0, time.Duration(i)), 0); err != nil {
			t.Fatalf("under-cap dispatch %d: %v", i, err)
		}
	}
	_, err := s.Dispatch(admReq(200, 0, 10), 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap dispatch: err=%v, want ErrQueueFull", err)
	}
	if got := s.QueueLen(); got != 3 {
		t.Fatalf("queue len = %d, want 3", got)
	}
	if st := s.AdmissionStats(); st.Rejected != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want Rejected=1 Shed=0", st)
	}
}

func TestAdmissionPerTenantCap(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	s.SetAdmission(AdmissionConfig{MaxPerTenant: 2})
	fillFleet(t, s, 1)
	for i := 0; i < 2; i++ {
		if _, err := s.Dispatch(admReq(int64(100+i), 7, time.Duration(i)), 0); err != nil {
			t.Fatalf("tenant under-cap dispatch %d: %v", i, err)
		}
	}
	_, err := s.Dispatch(admReq(200, 7, 10), 0)
	if !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("tenant over-cap: err=%v, want ErrTenantQueueFull", err)
	}
	// Another tenant is unaffected.
	if _, err := s.Dispatch(admReq(201, 8, 11), 0); err != nil {
		t.Fatalf("other tenant dispatch: %v", err)
	}
	if st := s.AdmissionStats(); st.TenantRejected != 1 {
		t.Fatalf("stats = %+v, want TenantRejected=1", st)
	}
}

func TestAdmissionShedBestEffortFCFS(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	s.SetAdmission(AdmissionConfig{MaxQueue: 3, Policy: ShedBestEffort})
	var shed []*core.Request
	s.OnShed = func(r *core.Request) { shed = append(shed, r) }
	fillFleet(t, s, 1)
	// Tenant 5 queues two requests, tenant 6 one: tenant 5 holds the
	// most queued work, so its newest (id 102) is the victim.
	mustQueue := func(id, tenant int64, at time.Duration) {
		t.Helper()
		if _, err := s.Dispatch(admReq(id, tenant, at), 0); err != nil {
			t.Fatalf("dispatch %d: %v", id, err)
		}
	}
	mustQueue(101, 5, 1)
	mustQueue(102, 5, 2)
	mustQueue(103, 6, 3)
	mustQueue(104, 6, 4) // over cap: sheds tenant 5's newest
	if len(shed) != 1 || shed[0].ID != 102 {
		t.Fatalf("shed = %v, want [102]", shed)
	}
	if got := s.QueueLen(); got != 3 {
		t.Fatalf("queue len = %d, want 3 (bounded)", got)
	}
	if st := s.AdmissionStats(); st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want Shed=1", st)
	}
	// A further arrival from the now-most-queued tenant 6 is itself the
	// lowest priority: rejected, nothing shed.
	_, err := s.Dispatch(admReq(105, 6, 5), 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("lowest-priority arrival: err=%v, want ErrQueueFull", err)
	}
	if len(shed) != 1 {
		t.Fatalf("shed grew to %d entries on a self-lowest arrival", len(shed))
	}
}

func TestAdmissionShedBestEffortVTC(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	s.SetFairness(true)
	s.SetAdmission(AdmissionConfig{MaxQueue: 2, Policy: ShedBestEffort})
	var shed []*core.Request
	s.OnShed = func(r *core.Request) { shed = append(shed, r) }

	// Saturate the single batch slot so later dispatches queue.
	if g, err := s.Dispatch(admReq(1, 0, 0), 0); err != nil || g == nil {
		t.Fatalf("uncontended dispatch: g=%v err=%v", g, err)
	}
	// Queue fills: one request each from tenants 9 and 10.
	mustQueue := func(id, tenant int64, at time.Duration) {
		t.Helper()
		if _, err := s.Dispatch(admReq(id, tenant, at), 0); err != nil {
			t.Fatalf("dispatch %d: %v", id, err)
		}
	}
	mustQueue(101, 9, 1)
	mustQueue(102, 10, 2)
	// Give tenant 9 the service history of a whale: the highest virtual
	// token counter marks it lowest priority under contention.
	whale := s.fair.byTenant[9]
	whale.vt = s.fair.floor + 1000
	s.fair.siftDown(whale.pos)
	// Tenant 11 arrives over cap: the highest-VTC tenant (9) sheds its
	// newest queued request.
	mustQueue(103, 11, 3)
	if len(shed) != 1 || shed[0].ID != 101 {
		t.Fatalf("shed = %v, want [101]", shed)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("queue len = %d, want 2 (bounded)", got)
	}
	// The shed victim is fully unlinked: draining must not resurrect it.
	eng := s.GPUs()[0].Engine.(*core.Engine)
	now := time.Duration(0)
	for i := 0; s.QueueLen() > 0; i++ {
		if i > 1000 {
			t.Fatalf("queue never drained: %d still queued", s.QueueLen())
		}
		res := eng.Step(now)
		if res.Idle {
			at, ok := eng.EarliestPendingReady()
			if !ok {
				t.Fatalf("engine idle with %d requests queued and no wake-up", s.QueueLen())
			}
			now = at
		} else {
			now = res.EndsAt
		}
		placed, err := s.DrainQueue(now)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		for _, p := range placed {
			if p.Request.ID == 101 {
				t.Fatalf("shed request 101 resurrected by drain")
			}
		}
	}
}

func TestAdmissionRecoveryBypassesCaps(t *testing.T) {
	s, _ := admissionFleet(t, 1)
	s.SetAdmission(AdmissionConfig{MaxQueue: 1, Policy: ShedReject})
	fillFleet(t, s, 1)
	if _, err := s.Dispatch(admReq(100, 0, 1), 0); err != nil {
		t.Fatalf("fill queue: %v", err)
	}
	// Requeue (fault recovery) must not be rejected even over cap.
	if _, err := s.Requeue(admReq(200, 0, 2), 0); err != nil {
		t.Fatalf("requeue over cap: %v", err)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("queue len = %d, want 2 (recovery bypasses cap)", got)
	}
	if st := s.AdmissionStats(); st.Rejected != 0 {
		t.Fatalf("recovery path counted a rejection: %+v", st)
	}
}

func TestDrainRateAndRetryAfterHint(t *testing.T) {
	s, _ := admissionFleet(t, 4)
	// No placements yet: conservative default.
	if got := s.RetryAfterHint(1); got != time.Second {
		t.Fatalf("cold hint = %v, want 1s", got)
	}
	// Four placements 100ms apart → ~10 placements/sec.
	for i := 0; i < 4; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		if g, err := s.Dispatch(admReq(int64(i+1), 0, now), now); err != nil || g == nil {
			t.Fatalf("dispatch %d: g=%v err=%v", i, g, err)
		}
	}
	rate := s.DrainRate()
	if rate < 5 || rate > 20 {
		t.Fatalf("drain rate = %v, want ~10/s", rate)
	}
	// Hint for 10 slots at ~10/s ≈ 1s, and scales with n.
	h1, h10 := s.RetryAfterHint(1), s.RetryAfterHint(10)
	if h10 <= h1 {
		t.Fatalf("hint not monotone in n: %v vs %v", h1, h10)
	}
	if h10 < 200*time.Millisecond || h10 > 5*time.Second {
		t.Fatalf("hint(10) = %v, want ~1s", h10)
	}
}

func TestParseShedPolicy(t *testing.T) {
	for in, want := range map[string]ShedPolicy{
		"":                 ShedReject,
		"reject":           ShedReject,
		"shed-best-effort": ShedBestEffort,
	} {
		got, err := ParseShedPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseShedPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseShedPolicy("bogus"); err == nil {
		t.Fatalf("ParseShedPolicy(bogus) accepted")
	}
	if ShedReject.String() != "reject" || ShedBestEffort.String() != "shed-best-effort" {
		t.Fatalf("ShedPolicy.String round-trip broken")
	}
}

// TestCancelQueuedRemovesByID drops a waiting request by id in FCFS and
// fairness mode alike: the queue shrinks, the rest keep their order,
// and the dropped request is never placed.
func TestCancelQueuedRemovesByID(t *testing.T) {
	for _, fair := range []bool{false, true} {
		s, g := admissionFleet(t, 1)
		s.SetFairness(fair)
		fillFleet(t, s, 1)
		for i := int64(0); i < 3; i++ {
			if _, err := s.Dispatch(admReq(10+i, i, time.Duration(i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if !s.CancelQueued(11) {
			t.Fatalf("fair=%v: queued request 11 not found", fair)
		}
		if s.CancelQueued(11) || s.CancelQueued(1) {
			t.Fatalf("fair=%v: cancelled a request that is not queued", fair)
		}
		if got := s.QueueLen(); got != 2 {
			t.Fatalf("fair=%v: queue len %d, want 2", fair, got)
		}
		g.Engine.Cancel(1, 0)
		var ids []int64
		for len(ids) < 2 {
			placed, err := s.DrainQueue(0)
			if err != nil || len(placed) != 1 {
				t.Fatalf("fair=%v: drain placed %d: %v", fair, len(placed), err)
			}
			ids = append(ids, placed[0].Request.ID)
			g.Engine.Cancel(placed[0].Request.ID, 0)
		}
		if ids[0] != 10 || ids[1] != 12 {
			t.Fatalf("fair=%v: placed %v, want [10 12]", fair, ids)
		}
	}
}
