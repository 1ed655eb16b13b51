// Cell-sharded simulation: the fleet splits into cells — each with its
// own virtual clock, scheduler, and GPU set — that advance in parallel
// under sim.ParallelExecutor's deterministic epoch-barrier protocol.
// Tenants land on cells by consistent-hash adapter affinity; cross-cell
// effects (queue-overflow spill, aggregated fleet metrics, the fleet
// autoscale signal) move only at barriers, in cell-index order, so the
// result is byte-identical to running the cells sequentially whatever
// the worker count or GOMAXPROCS.
package cluster

import (
	"fmt"
	"hash/fnv"
	"time"

	"punica/internal/core"
	"punica/internal/lora"
	"punica/internal/metrics"
	"punica/internal/sim"
	"punica/internal/workload"
)

// CellsConfig describes a cell-sharded deployment.
type CellsConfig struct {
	// Base is the fleet-wide template: Base.NumGPUs is the total fleet
	// size, divided across cells (earlier cells take the remainder).
	// Policy, Engine, MigrationInterval and Faults apply per cell;
	// Autoscale bounds are split across cells (each cell keeps at least
	// one GPU). Disagg is not supported in cells mode.
	Base Config
	// Cells is the shard count (≥ 1).
	Cells int
	// Workers is the goroutine budget for advancing cells each epoch.
	// 1 (or less) runs cells sequentially in index order — the reference
	// interleaving every other worker count must reproduce exactly.
	Workers int
	// EpochDelta is the barrier interval Δ (sim.DefaultEpoch when 0).
	EpochDelta time.Duration
	// SpillThreshold is the per-cell queue depth above which the excess
	// spills to lightly-loaded cells at the next barrier. 0 derives
	// 8 × the cell's GPU count; negative disables spilling.
	SpillThreshold int
	// Scramble rotates the executor's shard dispatch order every epoch —
	// a determinism-test knob proving results are independent of which
	// worker advances which cell when.
	Scramble bool
}

// CellStats reports one cell's share of a run.
type CellStats struct {
	GPUs     int
	Requests int   // trace requests routed to the cell by adapter hash
	Events   int64 // discrete events the cell's clock executed
	// SpillsOut counts queued requests this cell handed away at
	// barriers; SpillsIn counts requests it absorbed from other cells.
	SpillsOut int64
	SpillsIn  int64
	// BarrierStalls counts epochs where this cell executed no events
	// while the fleet still had work — time the cell spent waiting on
	// the barrier for busier cells.
	BarrierStalls int64
}

// MultiCluster runs a cell-sharded fleet under the epoch-barrier
// executor.
type MultiCluster struct {
	cfg    CellsConfig
	cells  []*Cluster
	clocks []*sim.VirtualClock
	exec   *sim.ParallelExecutor
	ring   cellRing
	spill  []int // per-cell spill threshold

	routed []int // trace requests routed per cell
	loads  []int // scratch: per-cell queue depth at the current barrier

	fleetQueue   metrics.TimeSeries
	scaleSignals int64
}

// NewMulti builds a cell-sharded fleet. The Base.NumGPUs GPUs are dealt
// to cfg.Cells cells round-robin-by-count (cell i gets one extra GPU
// while i < NumGPUs mod Cells); each cell is a full Cluster with its
// own clock, scheduler and policy instance.
func NewMulti(cfg CellsConfig) *MultiCluster {
	if cfg.Cells < 1 {
		cfg.Cells = 1
	}
	if cfg.Base.NumGPUs < cfg.Cells {
		panic(fmt.Sprintf("cluster: %d GPUs cannot form %d cells", cfg.Base.NumGPUs, cfg.Cells))
	}
	if cfg.Base.Disagg != nil {
		panic("cluster: prefill/decode disaggregation is not supported in cells mode")
	}
	m := &MultiCluster{
		cfg:    cfg,
		ring:   newCellRing(cfg.Cells),
		routed: make([]int, cfg.Cells),
		loads:  make([]int, cfg.Cells),
	}
	faults := splitFaults(cfg.Base.Faults, cfg.Cells)
	base, rem := cfg.Base.NumGPUs/cfg.Cells, cfg.Base.NumGPUs%cfg.Cells
	for i := 0; i < cfg.Cells; i++ {
		cc := cfg.Base
		cc.NumGPUs = base
		if i < rem {
			cc.NumGPUs++
		}
		cc.Faults = faults[i]
		cc.Autoscale = splitAutoscale(cfg.Base.Autoscale, i, cfg.Cells, cc.NumGPUs)
		cell := New(cc)
		m.cells = append(m.cells, cell)
		m.clocks = append(m.clocks, cell.clock)
		threshold := cfg.SpillThreshold
		if threshold == 0 {
			threshold = 8 * cc.NumGPUs
		}
		m.spill = append(m.spill, threshold)
	}
	return m
}

// Cells exposes the per-cell clusters (tests and stat collection).
func (m *MultiCluster) Cells() []*Cluster { return m.cells }

// Executed returns the fleet-wide executed-event total across all cell
// clocks — the shard aggregation of sim.VirtualClock.Executed.
func (m *MultiCluster) Executed() int64 {
	var total int64
	for _, c := range m.cells {
		total += c.clock.Executed()
	}
	return total
}

// CellOf returns the cell index that adapter affinity assigns to a
// model — the consistent-hash placement every request of that tenant
// follows.
func (m *MultiCluster) CellOf(model int64) int { return m.ring.cellOf(model) }

// CellStats reports per-cell outcomes; valid after Run.
func (m *MultiCluster) CellStats() []CellStats {
	stalls := []int64(nil)
	if m.exec != nil {
		stalls = m.exec.Stalls()
	}
	out := make([]CellStats, len(m.cells))
	for i, c := range m.cells {
		st := c.sched.Stats()
		out[i] = CellStats{
			GPUs:      c.cfg.NumGPUs,
			Requests:  m.routed[i],
			Events:    c.clock.Executed(),
			SpillsOut: st.SpillsOut,
			SpillsIn:  st.SpillsIn,
		}
		if stalls != nil {
			out[i].BarrierStalls = stalls[i]
		}
	}
	return out
}

// Run partitions the trace across cells by adapter affinity, drives all
// cells to completion under the epoch-barrier executor, and merges the
// per-cell results into one fleet result.
func (m *MultiCluster) Run(reqs []workload.Request) (*Result, error) {
	per := make([][]workload.Request, len(m.cells))
	for _, r := range reqs {
		i := m.ring.cellOf(r.Model)
		per[i] = append(per[i], r)
		m.routed[i]++
	}
	for i, c := range m.cells {
		c.start(per[i])
	}
	m.exec = sim.NewParallelExecutor(m.clocks, m.cfg.Workers, m.cfg.EpochDelta)
	m.exec.ScrambleOrder = m.cfg.Scramble
	m.exec.Run(m.exchange)

	results := make([]*Result, len(m.cells))
	for i, c := range m.cells {
		res, err := c.finalize()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		results[i] = res
	}
	return m.merge(results), nil
}

// exchange is the barrier protocol: called single-threaded after every
// cell has advanced to the barrier time. It iterates cells strictly in
// index order — with per-cell event injection in that same order — so
// the cross-cell interleaving is a pure function of simulation state.
func (m *MultiCluster) exchange(barrier time.Duration) bool {
	needScale := true
	total := 0
	for i, c := range m.cells {
		m.loads[i] = c.sched.QueueLen()
		total += m.loads[i]
		if needScale && !c.sched.NeedMoreGPUs() {
			needScale = false
		}
	}
	// Aggregated fleet metrics and the fleet autoscale signal move only
	// here — cells never read each other's state mid-epoch.
	m.fleetQueue.Add(barrier, float64(total))
	if needScale {
		m.scaleSignals++
	}

	injected := false
	for i, src := range m.cells {
		if m.spill[i] < 0 {
			continue
		}
		excess := m.loads[i] - m.spill[i]
		if excess <= 0 {
			continue
		}
		// Spill only what under-threshold cells can absorb; never shuffle
		// load between two equally congested cells.
		room := 0
		for j := range m.cells {
			if j != i && m.loads[j] < m.spill[j] {
				room += m.spill[j] - m.loads[j]
			}
		}
		if room == 0 {
			continue
		}
		if excess > room {
			excess = room
		}
		for _, r := range src.sched.StealNewest(excess) {
			dst := -1
			for j := range m.cells {
				if j == i || m.loads[j] >= m.spill[j] {
					continue
				}
				if dst == -1 || m.loads[j] < m.loads[dst] {
					dst = j
				}
			}
			if dst == -1 {
				// Absorbers filled up mid-loop: requeue locally. The
				// request keeps its arrival-ordered queue slot, so this
				// is a no-op for scheduling order.
				if _, err := src.sched.AdmitSpill(r, barrier); err != nil {
					src.fail(err)
				}
				continue
			}
			m.deliverSpill(m.cells[dst], r, barrier)
			m.loads[dst]++
			m.loads[i]--
			injected = true
		}
	}
	return injected
}

// deliverSpill schedules r's admission on the destination cell at the
// barrier instant. The event runs at the start of the destination's
// next epoch, in injection order — the sorted (cell, seq) delivery that
// keeps the merge deterministic.
func (m *MultiCluster) deliverSpill(dst *Cluster, r *core.Request, barrier time.Duration) {
	dst.clock.Schedule(barrier, func() {
		g, err := dst.sched.AdmitSpill(r, dst.clock.Now())
		if err != nil {
			dst.fail(err)
			return
		}
		if g != nil {
			dst.runnerOf(g).drv.Kick()
		}
	})
}

// merge folds per-cell results into one fleet result, in cell-index
// order. Histograms merge exactly in the bucket domain; time series
// merge mass- and count-exact; per-GPU vectors concatenate (cell 0's
// GPUs first). Utilization pool means are recomputed over the merged
// per-GPU vectors so cells with different GPU counts weigh correctly.
func (m *MultiCluster) merge(results []*Result) *Result {
	out := &Result{
		Cells:   len(m.cells),
		Workers: m.cfg.Workers,
		Epochs:  m.exec.Epochs(),
	}
	for _, st := range m.exec.Stalls() {
		out.BarrierStalls += st
	}
	out.FleetQueueSeries = m.fleetQueue
	out.ScaleSignalBarriers = m.scaleSignals
	for _, r := range results {
		if r.Makespan > out.Makespan {
			out.Makespan = r.Makespan
		}
		out.DecodeTokens += r.DecodeTokens
		out.PrefillTokens += r.PrefillTokens
		out.Finished += r.Finished
		out.Migrations += r.Migrations
		out.Evictions += r.Evictions
		out.WastedDecodes += r.WastedDecodes
		out.Spills += r.Spills
		out.AdapterStalls += r.AdapterStalls
		out.AdapterEvictions += r.AdapterEvictions
		out.GPUFailures += r.GPUFailures
		out.GPUReplacements += r.GPUReplacements
		out.GPUStalls += r.GPUStalls
		out.FaultsSkipped += r.FaultsSkipped
		out.RecoveredRequests += r.RecoveredRequests
		out.RecomputedPrefillTokens += r.RecomputedPrefillTokens
		out.KVMigrations += r.KVMigrations
		out.KVMigratedBytes += r.KVMigratedBytes
		out.KVMigrationFallbacks += r.KVMigrationFallbacks
		out.AdapterPrefetches += r.AdapterPrefetches
		out.TierStats = lora.MergeTierStats(out.TierStats, r.TierStats)
		out.ColdStart.Merge(&r.ColdStart)
		out.PreDistBytes += r.PreDistBytes
		out.PreDistPromotions += r.PreDistPromotions
		if r.QueuePeak > out.QueuePeak {
			out.QueuePeak = r.QueuePeak
		}
		out.TimeToFirstToken.Merge(&r.TimeToFirstToken)
		out.EndToEnd.Merge(&r.EndToEnd)
		out.PerTokenLatency.Merge(&r.PerTokenLatency)
		out.InterTokenLatency.Merge(&r.InterTokenLatency)
		out.RecoveryLatency.Merge(&r.RecoveryLatency)
		out.ArrivalSeries.Merge(&r.ArrivalSeries)
		out.ProcessedSeries.Merge(&r.ProcessedSeries)
		out.BatchSeries = append(out.BatchSeries, r.BatchSeries...)
		out.GPUBusyFraction = append(out.GPUBusyFraction, r.GPUBusyFraction...)
		out.GPURoles = append(out.GPURoles, r.GPURoles...)
		out.Tenants = mergeTenantOutcomes(out.Tenants, r.Tenants)
	}
	// The fairness indices are fleet properties: recompute over the
	// merged tenant set rather than averaging per-cell indices.
	summarizeTenants(out)
	var prefillBusy, decodeBusy []float64
	for i, role := range out.GPURoles {
		util := out.GPUBusyFraction[i]
		switch role {
		case core.RoleDecode.String():
			decodeBusy = append(decodeBusy, util)
		case core.RolePrefill.String():
			prefillBusy = append(prefillBusy, util)
		default: // unified counts toward both pools
			prefillBusy = append(prefillBusy, util)
			decodeBusy = append(decodeBusy, util)
		}
	}
	out.PrefillUtil = mean(prefillBusy)
	out.DecodeUtil = mean(decodeBusy)
	if out.Makespan > 0 {
		out.Throughput = float64(out.DecodeTokens) / out.Makespan.Seconds()
	}
	return out
}

// splitFaults partitions a fleet fault plan across cells: event e lands
// on cell e.GPU mod cells with local victim index e.GPU div cells, so a
// seeded plan exercises every cell and stays deterministic under any
// worker count. nil in, nil slices out.
func splitFaults(plan *FaultPlan, cells int) []*FaultPlan {
	out := make([]*FaultPlan, cells)
	if plan == nil {
		return out
	}
	for _, ev := range plan.Events {
		g := ev.GPU
		if g < 0 {
			g = -g
		}
		i := g % cells
		local := ev
		local.GPU = g / cells
		if out[i] == nil {
			out[i] = &FaultPlan{}
		}
		out[i].Events = append(out[i].Events, local)
	}
	return out
}

// splitAutoscale divides fleet elastic bounds across cells: each cell
// keeps at least one GPU of floor, remainders go to earlier cells. nil
// stays nil (no autoscaling).
func splitAutoscale(a *AutoscaleConfig, i, cells, cellGPUs int) *AutoscaleConfig {
	if a == nil {
		return nil
	}
	share := func(total int) int {
		n := total / cells
		if i < total%cells {
			n++
		}
		return n
	}
	cc := *a
	cc.MinGPUs = share(a.MinGPUs)
	if cc.MinGPUs < 1 {
		cc.MinGPUs = 1
	}
	cc.MaxGPUs = share(a.MaxGPUs)
	if cc.MaxGPUs < cc.MinGPUs {
		cc.MaxGPUs = cc.MinGPUs
	}
	if cc.MaxGPUs > cellGPUs {
		cc.MaxGPUs = cellGPUs
	}
	return &cc
}

// cellRing is a consistent-hash ring over cells: each cell projects
// ringVnodes virtual points onto the 64-bit ring and a model id maps to
// the first point at or clockwise of its hash. Placement is a pure
// function of (model, cell count): adding cells moves only ~1/cells of
// the tenants, and every request of one tenant — one adapter — lands in
// the same cell, the adapter-affinity property that keeps each adapter
// resident in exactly one cell's stores.
type cellRing struct {
	hashes []uint64
	owner  []int
}

// ringVnodes balances tenant load across cells; 64 points per cell
// keeps the max/min cell share within ~25% for the shard counts this
// simulator uses.
const ringVnodes = 64

func newCellRing(cells int) cellRing {
	type pt struct {
		h uint64
		c int
	}
	pts := make([]pt, 0, cells*ringVnodes)
	for c := 0; c < cells; c++ {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, pt{ringHash(fmt.Sprintf("cell-%d/%d", c, v)), c})
		}
	}
	// Insertion sort by hash: deterministic, no dependencies; runs once
	// per fleet construction.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].h < pts[j-1].h; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	r := cellRing{hashes: make([]uint64, len(pts)), owner: make([]int, len(pts))}
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owner[i] = p.c
	}
	return r
}

func (r cellRing) cellOf(model int64) int {
	h := ringHash(fmt.Sprintf("model-%d", model))
	// Binary search for the first ring point ≥ h, wrapping to 0.
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		lo = 0
	}
	return r.owner[lo]
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a of short structured
// keys ("cell-3/17", "model-42") clusters in the upper bits, which is
// exactly where ring placement looks; the finalizer's avalanche spreads
// the points uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
