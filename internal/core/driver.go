package core

import (
	"time"

	"punica/internal/sim"
)

// Driver runs one engine's invocations back to back on a clock — "GPU
// runs the Prefill steps and Decode steps continuously" (§5) — for the
// simulator (sim.VirtualClock) and the live stack (sim.WallClock) alike.
// Kick issues a step at the clock's now; its completion is scheduled at
// the modelled end time res.EndsAt and kicks again. An engine idle only
// because an adapter (or migrated KvCache) is still loading sleeps until
// the earliest load lands. Call a Driver from its clock's events or, on
// a WallClock, with the owner's lock held.
type Driver struct {
	eng        *Engine
	clock      sim.Clock
	hooks      DriverHooks
	wake, done func()
	res        StepResult // the step in flight

	inFlight, wakeScheduled, stopped bool
}

// DriverHooks are the caller-specific parts of the loop; all optional.
type DriverHooks struct {
	// Paused holds a step back at now (a transient stall). The caller
	// kicks again when the pause ends.
	Paused func(now time.Duration) bool
	// Evicted receives the requests a step pushed out of the KvCache
	// (§5.3) for re-placement. The slice is the hook's own copy: a
	// re-placement may cascade into another Step on this engine.
	Evicted func(evicted []*Request, now time.Duration)
	// Started observes a non-idle step as it is issued.
	Started func(res StepResult, now time.Duration)
	// Completed runs when a step's invocation ends, at res.EndsAt,
	// before the driver kicks the engine again.
	Completed func(res StepResult, now time.Duration)
}

// NewDriver returns a driver for eng on clock, idle until the first Kick.
func NewDriver(eng *Engine, clock sim.Clock, hooks DriverHooks) *Driver {
	d := &Driver{eng: eng, clock: clock, hooks: hooks}
	d.wake = func() {
		d.wakeScheduled = false
		d.Kick()
	}
	d.done = d.complete
	return d
}

// InFlight reports whether an invocation is running.
func (d *Driver) InFlight() bool { return d.inFlight }

// Stopped reports whether Stop was called.
func (d *Driver) Stopped() bool { return d.stopped }

// Stop ends the loop for a dead or closed GPU: the driver never steps
// again, and an invocation in flight completes without its hooks.
func (d *Driver) Stop() { d.stopped = true }

// Kick starts a step if the engine has work and none is in flight; call
// it whenever work lands on the engine.
func (d *Driver) Kick() {
	if d.inFlight || d.stopped {
		return
	}
	e := d.eng
	if !e.Busy() {
		return
	}
	now := d.clock.Now()
	if d.hooks.Paused != nil && d.hooks.Paused(now) {
		return
	}
	res := e.Step(now)
	if res.Idle {
		// An idle step can still evict (KV pressure can drain the whole
		// batch), and re-placing an eviction may already have started
		// this engine's next step — in which case the in-flight
		// invocation owns the engine and this frame must not touch it.
		d.evicted(res.Evicted, now)
		if d.inFlight {
			return
		}
		if wake, ok := e.EarliestPendingReady(); ok && wake > now {
			if !d.wakeScheduled {
				d.wakeScheduled = true
				d.clock.Schedule(wake, d.wake)
			}
			return
		}
		if e.Busy() {
			panic("core: engine idle with work but no wake-up time")
		}
		return
	}
	// Mark the step in flight BEFORE handing back evictions: a
	// re-placement can cascade back onto this engine, and the cascaded
	// kick must not re-enter Step while res — whose slices alias the
	// engine's scratch — is live. complete kicks again.
	d.inFlight = true
	d.evicted(res.Evicted, now)
	if d.hooks.Started != nil {
		d.hooks.Started(res, now)
	}
	d.res = res //punica:retains-copy inFlight blocks re-entry into Step until complete() runs
	d.clock.Schedule(res.EndsAt, d.done)
}

// complete ends the invocation in flight and immediately starts the next.
func (d *Driver) complete() {
	res := d.res
	d.res, d.inFlight = StepResult{}, false
	if d.stopped {
		return
	}
	if d.hooks.Completed != nil {
		d.hooks.Completed(res, d.clock.Now())
	}
	d.Kick()
}

// evicted hands the hook a private copy; evictions are rare, so the
// allocation is off the hot path.
func (d *Driver) evicted(evicted []*Request, now time.Duration) {
	if len(evicted) > 0 && d.hooks.Evicted != nil {
		d.hooks.Evicted(append([]*Request(nil), evicted...), now)
	}
}
