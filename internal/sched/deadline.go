package sched

import (
	"context"
	"sync"
	"time"
)

// now reads the wall clock. Every timing decision in the package —
// exchange deadlines, retry budgets, lease renewals, the agent's
// staleness clock — reads time here, so a virtual clock has one place
// to plug in.
func now() time.Time { return time.Now() }

// deadline is the reusable context one collector (Run's sequential
// path, one batch slot, or an agent) bounds its exchanges with: arm
// starts a bound, disarm ends it, and the next exchange re-arms the
// same timer instead of building a fresh context.WithTimeout.
//
//   - A bound starts lazily: arm only records the timeout, and the
//     first Done, Err or Deadline reads the clock, fixes the bound and
//     makes sure the timer fires by then. An exchange that never blocks
//     — an inline link answers before Recv looks — reads no clock and
//     touches no timer. armFrom fixes the bound from a clock reading
//     the caller already holds, so an observed bound needs no read of
//     its own while the timer is already due to fire no later than it.
//   - One time.AfterFunc timer is re-armed lazily: a started bound only
//     sets the timer when it is not already due to fire no later than
//     the bound, disarm only clears the bound, and a firing that finds
//     a later bound started re-arms the timer for the remainder. A
//     steady stream of exchanges under one timeout touches the timer
//     once per timeout, not twice per exchange.
//   - One context.AfterFunc on the parent (the run's ctx) closes Done
//     the moment the run is cancelled, so a pending Send or Recv ends
//     at once.
//   - Deadline is the earlier of the armed bound and the parent's, so
//     a connection applies it as a socket deadline.
//   - Err is context.DeadlineExceeded when the bound fired and the
//     parent's error when the parent ended, exactly what a
//     context.WithTimeout would report.
//   - A new done channel is made only after one has fired, so a steady
//     exchange allocates nothing.
//
// arm and disarm belong to the collector's goroutine; Done, Err,
// Deadline and Value are safe from any goroutine. release stops the
// timer and drops the parent registration once the collector is done.
type deadline struct {
	parent     context.Context
	stopParent func() bool
	timer      *time.Timer

	mu   sync.Mutex
	done chan struct{}
	err  error     // non-nil once done is closed
	at   time.Time // the armed bound; zero while disarmed, or until arm's starts
	// pending marks a bound armed but not yet started: at is zero (arm;
	// it starts timeout after the first Done, Err or Deadline) or fixed
	// (armFrom), and the timer does not yet serve it.
	pending bool
	timeout time.Duration
	// due is when the timer is set to fire; zero while it is not set.
	// Whenever a started bound is set, due is at or before it, or a
	// firing is on its way to expire, which re-arms for at.
	due time.Time
}

var _ context.Context = (*deadline)(nil)

func newDeadline(parent context.Context) *deadline {
	d := &deadline{parent: parent, done: make(chan struct{})}
	d.stopParent = context.AfterFunc(parent, func() { d.fire(parent.Err()) })
	return d
}

// fire closes done with err unless it is closed already.
func (d *deadline) fire(err error) {
	d.mu.Lock()
	d.fireLocked(err)
	d.mu.Unlock()
}

func (d *deadline) fireLocked(err error) {
	if d.err == nil {
		d.err = err
		close(d.done)
	}
}

// expire is the timer's callback. It fires an armed bound that has
// passed and re-arms the timer for one still ahead; a disarmed
// deadline leaves done open and the timer idle.
func (d *deadline) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.due = time.Time{}
	if d.at.IsZero() || d.pending {
		return
	}
	if t := now(); t.Before(d.at) {
		d.setTimerLocked(d.at, d.at.Sub(t))
		return
	}
	d.fireLocked(context.DeadlineExceeded)
}

// setTimerLocked makes the timer fire after wait, at due.
func (d *deadline) setTimerLocked(due time.Time, wait time.Duration) {
	d.due = due
	if d.timer == nil {
		d.timer = time.AfterFunc(wait, d.expire)
	} else {
		d.timer.Reset(wait)
	}
}

// arm bounds the next exchange at timeout from when it is first
// observed (Done, Err or Deadline). A deadline that fired gets a fresh
// done channel first; an ended parent leaves it done at once, as
// context.WithTimeout would.
func (d *deadline) arm(timeout time.Duration) {
	d.armFrom(time.Time{}, timeout)
}

// armFrom bounds the next exchange at timeout after from, a clock
// reading the caller took just before; a zero from is arm.
func (d *deadline) armFrom(from time.Time, timeout time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		d.done, d.err = make(chan struct{}), nil
	}
	if err := d.parent.Err(); err != nil {
		d.fireLocked(err)
	}
	d.at, d.timeout, d.pending = time.Time{}, timeout, true
	if !from.IsZero() {
		d.at = from.Add(timeout)
	}
}

// startLocked starts a pending bound: it fixes at, reading the clock
// only when arm left it open or the timer has to be set, and makes
// sure the timer fires by at.
func (d *deadline) startLocked() {
	if !d.pending {
		return
	}
	d.pending = false
	var t time.Time
	if d.at.IsZero() {
		t = now()
		d.at = t.Add(d.timeout)
	}
	if !d.due.IsZero() && !d.due.After(d.at) {
		return // the timer fires first and expire re-arms for at
	}
	if t.IsZero() {
		t = now()
	}
	if wait := d.at.Sub(t); wait > 0 {
		d.setTimerLocked(d.at, wait)
	} else {
		d.fireLocked(context.DeadlineExceeded)
	}
}

// disarm ends the current exchange's bound. The timer keeps running;
// its firing finds nothing armed, or a later bound to re-arm for.
func (d *deadline) disarm() {
	d.mu.Lock()
	d.at, d.pending = time.Time{}, false
	d.mu.Unlock()
}

// release stops the timer and drops the parent registration.
func (d *deadline) release() {
	d.mu.Lock()
	d.at, d.due, d.pending = time.Time{}, time.Time{}, false
	if d.timer != nil {
		d.timer.Stop()
	}
	d.mu.Unlock()
	d.stopParent()
}

// Deadline implements context.Context.
func (d *deadline) Deadline() (time.Time, bool) {
	d.mu.Lock()
	d.startLocked()
	at := d.at
	d.mu.Unlock()
	pdl, ok := d.parent.Deadline()
	if at.IsZero() || (ok && pdl.Before(at)) {
		return pdl, ok
	}
	return at, true
}

// Done implements context.Context.
func (d *deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.startLocked()
	return d.done
}

// Err implements context.Context.
func (d *deadline) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.startLocked()
	return d.err
}

// Value implements context.Context.
func (d *deadline) Value(key any) any { return d.parent.Value(key) }
