package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goCounters are the Go runtime counters read at the edges of a measured
// phase.
type goCounters struct {
	allocs, allocBytes uint64
	gcCPU              float64 // seconds
	cpu                time.Duration
}

var goCounterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		cpu:        cpuTime(),
	}
}

// phase measures the CPU, allocation and heap cost of one measured phase.
type phase struct {
	start goCounters
	heap  *heapSampler
}

func startPhase() *phase {
	return &phase{start: readGoCounters(), heap: startHeapSampler()}
}

// phaseCost is what a phase used.
type phaseCost struct {
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCPUFrac  float64
	heapPeakMB float64
}

func (p *phase) stop() phaseCost {
	end := readGoCounters()
	c := phaseCost{
		cpu:        end.cpu - p.start.cpu,
		allocs:     end.allocs - p.start.allocs,
		allocBytes: end.allocBytes - p.start.allocBytes,
		heapPeakMB: p.heap.stop(),
	}
	if c.cpu > 0 {
		c.gcCPUFrac = (end.gcCPU - p.start.gcCPU) / c.cpu.Seconds()
	}
	return c
}

// heapSampler records the peak Go heap in use, sampled every 10 ms
// without stopping the world.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
