package core

import (
	"testing"
	"time"

	"punica/internal/sim"
)

// newTestDriver drives a fresh engine holding one request on a virtual
// clock. Without LoRA the request is admissible at once; with it, its
// adapter must load first.
func newTestDriver(t *testing.T, lora bool, output int, hooks DriverHooks) (*Engine, *sim.VirtualClock, *Driver) {
	t.Helper()
	cfg := punicaConfig()
	if !lora {
		cfg.System.LoRA = LoRANone
	}
	e := NewEngine(cfg)
	if err := e.Enqueue(req(1, 1, 20, output, 0), 0); err != nil {
		t.Fatal(err)
	}
	clock := sim.NewVirtualClock()
	return e, clock, NewDriver(e, clock, hooks)
}

// TestDriverDedupesAdapterWake kicks an engine that is idle only because
// its adapter is loading: however often it is kicked, exactly one wake
// is scheduled, at the load's end.
func TestDriverDedupesAdapterWake(t *testing.T) {
	e, clock, d := newTestDriver(t, true, 5, DriverHooks{})
	for range 5 {
		d.Kick()
	}
	ready, _ := e.EarliestPendingReady()
	if at, _ := clock.NextAt(); clock.Pending() != 1 || at != ready {
		t.Fatalf("%d events pending, first at %v; want one wake at %v", clock.Pending(), at, ready)
	}
	clock.RunAll()
	if e.Busy() || e.Stats().Finished != 1 {
		t.Fatalf("request did not finish: busy=%v finished=%d", e.Busy(), e.Stats().Finished)
	}
}

// TestDriverNoReentryWhileInFlight kicks the driver from inside a step,
// as a re-placement cascade landing work back on the engine does: the
// nested kick must not re-enter Step, and every step runs exactly once.
func TestDriverNoReentryWhileInFlight(t *testing.T) {
	const out = 8
	var d *Driver
	var e *Engine
	started, completed := 0, 0
	e, clock, d := newTestDriver(t, false, out, DriverHooks{
		Started: func(StepResult, time.Duration) {
			started++
			before := e.Stats().Steps
			d.Kick()
			if e.Stats().Steps != before {
				t.Fatal("cascaded kick re-entered Step while a step was in flight")
			}
		},
		Completed: func(StepResult, time.Duration) { completed++ },
	})
	d.Kick()
	clock.RunAll()
	if started != out || completed != out || e.Stats().Steps != out {
		t.Fatalf("started %d, completed %d, stepped %d; want %d each", started, completed, e.Stats().Steps, out)
	}
}

// TestDriverStopNeverStepsAgain stops a driver mid-step: the in-flight
// invocation completes without its hooks, and no later kick steps.
func TestDriverStopNeverStepsAgain(t *testing.T) {
	completed := 0
	e, clock, d := newTestDriver(t, false, 50, DriverHooks{
		Completed: func(StepResult, time.Duration) { completed++ },
	})
	d.Kick()
	d.Stop()
	clock.RunAll()
	d.Kick()
	clock.RunAll()
	if e.Stats().Steps != 1 || completed != 0 || !e.Busy() {
		t.Fatalf("stopped driver: %d steps, %d completions, busy=%v; want the one step in flight and no hooks",
			e.Stats().Steps, completed, e.Busy())
	}
}
