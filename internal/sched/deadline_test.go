package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// probeLink is a grid-side link that records every exchange operation:
// when it started, the deadline its context carried, whether that
// context was already done, how long it took and how it ended.
type probeLink struct {
	v2i.Transport
	mu    sync.Mutex
	calls []probeCall
}

type probeCall struct {
	op          string
	start       time.Time
	deadline    time.Time
	hasDeadline bool
	doneAtEntry bool
	took        time.Duration
	err         error
}

func (p *probeLink) record(op string, ctx context.Context, run func() error) error {
	c := probeCall{op: op, start: time.Now()}
	c.deadline, c.hasDeadline = ctx.Deadline()
	select {
	case <-ctx.Done():
		c.doneAtEntry = true
	default:
	}
	c.err = run()
	c.took = time.Since(c.start)
	p.mu.Lock()
	p.calls = append(p.calls, c)
	p.mu.Unlock()
	return c.err
}

func (p *probeLink) Send(ctx context.Context, env v2i.Envelope) error {
	return p.record("send", ctx, func() error { return p.Transport.Send(ctx, env) })
}

func (p *probeLink) Recv(ctx context.Context) (env v2i.Envelope, err error) {
	err = p.record("recv", ctx, func() error {
		env, err = p.Transport.Recv(ctx)
		return err
	})
	return env, err
}

// blackHoled returns n grid-side probe links whose vehicles never
// answer, and a func closing the vehicle ends.
func blackHoled(n int) (map[string]v2i.Transport, []*probeLink, func()) {
	links := make(map[string]v2i.Transport, n)
	probes := make([]*probeLink, 0, n)
	var vehicles []v2i.Transport
	for i := 0; i < n; i++ {
		grid, vehicle := v2i.NewPair(8)
		p := &probeLink{Transport: grid}
		links[fmt.Sprintf("ev-%02d", i)] = p
		probes = append(probes, p)
		vehicles = append(vehicles, vehicle)
	}
	return links, probes, func() {
		for _, v := range vehicles {
			_ = v.Close()
		}
	}
}

// TestExchangeDeadlineCancel blocks every exchange on a vehicle that
// never answers, under a RoundTimeout far beyond the test, and
// requires cancelling the run's ctx to end Run at once, on the
// sequential path and on the batched one.
func TestExchangeDeadlineCancel(t *testing.T) {
	for _, parallelism := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism%d", parallelism), func(t *testing.T) {
			links, probes, closeVehicles := blackHoled(2)
			defer closeVehicles()
			coord, err := NewCoordinator(CoordinatorConfig{
				NumSections: 4, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
				RoundTimeout: time.Minute, Parallelism: parallelism,
			}, links)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := coord.Run(ctx)
				done <- err
			}()
			// Wait until a receive is pending on the black hole.
			for pending := false; !pending; {
				time.Sleep(time.Millisecond)
				for _, p := range probes {
					p.mu.Lock()
					pending = pending || len(p.calls) > 0
					p.mu.Unlock()
				}
			}
			time.Sleep(5 * time.Millisecond)
			cancelled := time.Now()
			cancel()
			select {
			case err := <-done:
				took := time.Since(cancelled)
				t.Logf("Run returned %v after cancel", took)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run after cancel: %v, want context.Canceled", err)
				}
				if took > 50*time.Millisecond {
					t.Fatalf("cancel took %v to end a blocked exchange", took)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelling the run did not end a blocked exchange")
			}
			_ = coord.Close()
		})
	}
}

// TestExchangeDeadlinePerAttempt quotes vehicles that never answer and
// checks every attempt's receive: it starts on a live context whose
// deadline lies one RoundTimeout after the attempt began — a fresh
// bound each time, never the one the previous attempt fired — and it
// ends with context.DeadlineExceeded after one RoundTimeout.
func TestExchangeDeadlinePerAttempt(t *testing.T) {
	const roundTimeout = 30 * time.Millisecond
	const maxRetries = 2
	for _, parallelism := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism%d", parallelism), func(t *testing.T) {
			links, probes, closeVehicles := blackHoled(2)
			defer closeVehicles()
			coord, err := NewCoordinator(CoordinatorConfig{
				NumSections: 4, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
				MaxRounds: 1, RoundTimeout: roundTimeout, MaxRetries: maxRetries,
				RetryBackoff: time.Millisecond, SkipUnresponsive: true, Parallelism: parallelism,
			}, links)
			if err != nil {
				t.Fatal(err)
			}
			report, err := coord.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if report.Skipped != 2 || report.Retries != 2*maxRetries {
				t.Fatalf("skipped %d, retries %d; want 2 and %d", report.Skipped, report.Retries, 2*maxRetries)
			}
			for i, p := range probes {
				var attemptStart, prevDeadline time.Time
				recvs := 0
				for _, c := range p.calls {
					if c.op == "send" {
						attemptStart = c.start
						continue
					}
					recvs++
					if c.doneAtEntry || !c.hasDeadline {
						t.Fatalf("vehicle %d attempt %d: receive began on a fired or unbounded deadline", i, recvs)
					}
					if !c.deadline.After(prevDeadline) {
						t.Fatalf("vehicle %d attempt %d: deadline %v not after the previous %v", i, recvs, c.deadline, prevDeadline)
					}
					prevDeadline = c.deadline
					if ahead := c.deadline.Sub(attemptStart); ahead <= 0 || ahead > roundTimeout {
						t.Fatalf("vehicle %d attempt %d: deadline %v after the attempt began, want within %v", i, recvs, ahead, roundTimeout)
					}
					if !errors.Is(c.err, context.DeadlineExceeded) {
						t.Fatalf("vehicle %d attempt %d: receive ended with %v", i, recvs, c.err)
					}
					if took := c.start.Add(c.took).Sub(attemptStart); took < roundTimeout*9/10 || took > roundTimeout+50*time.Millisecond {
						t.Fatalf("vehicle %d attempt %d: ended %v after it began, want about %v", i, recvs, took, roundTimeout)
					}
				}
				if recvs != maxRetries+1 {
					t.Fatalf("vehicle %d: %d attempts, want %d", i, recvs, maxRetries+1)
				}
			}
			_ = coord.Close()
		})
	}
}

// released reports whether a deadline holds no armed timer and no
// registration on its parent.
func released(d *deadline) bool {
	return (d.timer == nil || !d.timer.Stop()) && !d.stopParent()
}

// TestRunLeavesNoTimerOrGoroutine plays a full game, sequential and
// batched, with agents whose receives run under the autonomy
// deadline, and requires that once Run and Close return every
// exchange deadline is released and no goroutine is left.
func TestRunLeavesNoTimerOrGoroutine(t *testing.T) {
	for _, parallelism := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallelism%d", parallelism), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			links := make(map[string]v2i.Transport)
			agents := make([]*Agent, 0, 5)
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("ev-%02d", i)
				grid, vehicle := v2i.NewPair(8)
				agent, err := NewAgent(AgentConfig{
					VehicleID: id, MaxPowerKW: 60,
					Satisfaction: core.LogSatisfaction{Weight: 1 + 0.1*float64(i)},
					Autonomy:     &AutonomyConfig{QuoteDeadline: time.Second},
				}, vehicle)
				if err != nil {
					t.Fatal(err)
				}
				links[id] = grid
				agents = append(agents, agent)
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				NumSections: 6, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
				Tolerance: 1e-6, HeartbeatEvery: 2, Parallelism: parallelism,
			}, links)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for _, a := range agents {
				wg.Add(1)
				go func(a *Agent) {
					defer wg.Done()
					if _, err := a.Run(ctx); err != nil {
						t.Error(err)
					}
				}(a)
			}
			report, err := coord.Run(ctx)
			if err != nil || !report.Converged {
				t.Fatalf("run: converged=%v err=%v", report.Converged, err)
			}
			_ = coord.Close()
			wg.Wait()

			if !released(coord.dl) {
				t.Error("Run left its sequential deadline unreleased")
			}
			if parallelism > 1 && len(coord.batchDL) != parallelism {
				t.Errorf("%d batch deadlines, want %d", len(coord.batchDL), parallelism)
			}
			for i, d := range coord.batchDL {
				if !released(d) {
					t.Errorf("Run left batch slot %d's deadline unreleased", i)
				}
			}
			for i, a := range agents {
				if !released(a.dl) {
					t.Errorf("agent %d left its receive deadline unreleased", i)
				}
			}
			for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines left, %d before the game", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestExchangeDeadlineLazyRearm: a bound armed while the timer is still
// due for an earlier, disarmed bound fires at its own time, not the
// earlier one's; a bound earlier than the pending timer fires early;
// and release leaves no armed timer behind the re-arming.
func TestExchangeDeadlineLazyRearm(t *testing.T) {
	const short, long = 20 * time.Millisecond, 300 * time.Millisecond
	d := newDeadline(context.Background())

	d.arm(short)
	d.disarm()
	armed := time.Now()
	d.arm(long) // the timer is still due at the short bound
	if at, ok := d.Deadline(); !ok || at.Sub(armed) < long-time.Millisecond || at.Sub(armed) > long+50*time.Millisecond {
		t.Fatalf("Deadline %v (ok=%v) for a bound armed %v ahead", at.Sub(armed), ok, long)
	}
	time.Sleep(3 * short) // past the stale short firing
	if d.Err() != nil {
		t.Fatalf("bound fired after %v, armed for %v", time.Since(armed), long)
	}
	select {
	case <-d.Done():
		if took := time.Since(armed); took < long {
			t.Fatalf("bound fired after %v, armed for %v", took, long)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("bound armed for %v still open after 2s: the stale firing did not re-arm", long)
	}
	if !errors.Is(d.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", d.Err())
	}

	d.arm(time.Hour)
	d.disarm()
	armed = time.Now()
	d.arm(short) // earlier than the pending hour: the timer must move
	select {
	case <-d.Done():
		if took := time.Since(armed); took < short {
			t.Fatalf("bound fired after %v, armed for %v", took, short)
		}
	case <-time.After(time.Second):
		t.Fatalf("bound armed for %v still open after 1s behind a pending hour-long timer", short)
	}

	d.arm(time.Hour)
	d.disarm()
	d.release()
	if !released(d) {
		t.Fatal("release left the timer armed")
	}
}

// TestExchangeDeadlineCancelBlocked: cancelling the parent ends an
// exchange blocked under an armed bound at once, whatever timer is
// pending, and Err reports the parent's error.
func TestExchangeDeadlineCancelBlocked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := newDeadline(ctx)
	defer d.release()
	d.arm(time.Millisecond)
	d.disarm()
	d.arm(time.Hour)
	blocked := make(chan error, 1)
	go func() {
		<-d.Done()
		blocked <- d.Err()
	}()
	time.Sleep(5 * time.Millisecond) // past the stale millisecond firing
	select {
	case err := <-blocked:
		t.Fatalf("exchange ended with %v before the cancel", err)
	default:
	}
	cancelled := time.Now()
	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want Canceled", err)
		}
		if took := time.Since(cancelled); took > 250*time.Millisecond {
			t.Fatalf("blocked exchange ended %v after the cancel", took)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not end the blocked exchange")
	}
}
