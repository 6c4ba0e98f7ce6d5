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
//   - One time.AfterFunc timer is re-armed with Reset per exchange and
//     stopped afterwards.
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
// Deadline and Value are safe from any goroutine. release frees the
// timer and the parent registration once the collector is done.
type deadline struct {
	parent     context.Context
	stopParent func() bool
	timer      *time.Timer

	mu   sync.Mutex
	done chan struct{}
	err  error     // non-nil once done is closed
	at   time.Time // the armed bound; zero while disarmed
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

// expire is the timer's callback. A stale firing — the exchange was
// disarmed, or re-armed for later — leaves done open.
func (d *deadline) expire() {
	d.mu.Lock()
	if !d.at.IsZero() && !now().Before(d.at) {
		d.fireLocked(context.DeadlineExceeded)
	}
	d.mu.Unlock()
}

// arm bounds the next exchange at timeout from now. A deadline that
// fired gets a fresh done channel first; an ended parent leaves it
// done at once, as context.WithTimeout would.
func (d *deadline) arm(timeout time.Duration) {
	d.mu.Lock()
	if d.err != nil {
		d.done, d.err = make(chan struct{}), nil
	}
	if err := d.parent.Err(); err != nil {
		d.fireLocked(err)
	}
	d.at = now().Add(timeout)
	d.mu.Unlock()
	if d.timer == nil {
		d.timer = time.AfterFunc(timeout, d.expire)
	} else {
		d.timer.Reset(timeout)
	}
}

// disarm ends the current exchange's bound.
func (d *deadline) disarm() {
	if d.timer != nil {
		d.timer.Stop()
	}
	d.mu.Lock()
	d.at = time.Time{}
	d.mu.Unlock()
}

// release stops the timer and drops the parent registration.
func (d *deadline) release() {
	d.disarm()
	d.stopParent()
}

// Deadline implements context.Context.
func (d *deadline) Deadline() (time.Time, bool) {
	d.mu.Lock()
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
	return d.done
}

// Err implements context.Context.
func (d *deadline) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Value implements context.Context.
func (d *deadline) Value(key any) any { return d.parent.Value(key) }
