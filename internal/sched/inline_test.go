package sched

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// inlineFleet describes one fleet game: its size, the coordinator's
// RoundTimeout, and what wraps each end of every link (nil leaves an
// end bare).
type inlineFleet struct {
	n, sections  int
	roundTimeout time.Duration
	grid         func(i int, l v2i.Transport) v2i.Transport
	vehicle      func(i int, l v2i.Transport) v2i.Transport
}

// play runs the fleet over NewPair links with one Run goroutine per
// agent, or over inline pairs with each agent's Handle bound to its
// link, and returns the coordinator's report and every agent's result.
func (f inlineFleet) play(t *testing.T, inline bool) (Report, []AgentResult) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	links := make(map[string]v2i.Transport, f.n)
	results := make([]AgentResult, f.n)
	errs := make([]error, f.n)
	var wg sync.WaitGroup
	for i := 0; i < f.n; i++ {
		id := fmt.Sprintf("ev-%02d", i)
		var grid, vehicle v2i.Transport
		var bind *v2i.InlineGrid
		if inline {
			bind, vehicle = v2i.NewInlinePair(8)
			grid = bind
		} else {
			grid, vehicle = v2i.NewPair(8)
		}
		if f.grid != nil {
			grid = f.grid(i, grid)
		}
		if f.vehicle != nil {
			vehicle = f.vehicle(i, vehicle)
		}
		links[id] = grid
		agent, err := NewAgent(AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: core.LogSatisfaction{Weight: chaosWeight(i)},
		}, vehicle)
		if err != nil {
			t.Fatal(err)
		}
		if bind != nil {
			bind.Bind(agent.Handler(&results[i]))
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = agent.Run(ctx)
		}(i)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:      f.sections,
		LineCapacityKW:   53.55,
		Cost:             nonlinearSpec(),
		Tolerance:        1e-4,
		MaxRounds:        200,
		RoundTimeout:     f.roundTimeout,
		MaxRetries:       8,
		RetryBackoff:     time.Millisecond,
		SkipUnresponsive: true,
		ShutdownGrace:    100 * time.Millisecond,
		Seed:             7,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	report, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("inline=%v: %v", inline, err)
	}
	_ = coord.Close()
	for _, l := range links {
		_ = l.Close()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	if !report.Converged {
		t.Fatalf("inline=%v: no convergence in %d rounds", inline, report.Rounds)
	}
	return report, results
}

// TestInlineFleetMatchesPair plays the same fleet twice — agents on
// their own goroutines over NewPair links, and agents answering on the
// coordinator's goroutine over inline pairs — and requires the two to
// agree bit for bit: the coordinator's whole Report (rounds, epoch,
// counts, every request and schedule bit) and every AgentResult. The
// chaos row drops, duplicates and reorders frames on both ends with
// the same seeds in both runs, so the retries, stale frames and
// recoveries must match too.
func TestInlineFleetMatchesPair(t *testing.T) {
	faulty := func(base int64, cfg v2i.FaultConfig) func(int, v2i.Transport) v2i.Transport {
		return func(i int, l v2i.Transport) v2i.Transport {
			cfg.Seed = base + int64(i)
			return v2i.NewFaulty(l, cfg)
		}
	}
	chaos := v2i.FaultConfig{DropRate: 0.08, DuplicateRate: 0.15, ReorderRate: 0.1}
	for _, tc := range []struct {
		name  string
		fleet inlineFleet
	}{
		{"clean", inlineFleet{n: 8, sections: 6, roundTimeout: 100 * time.Millisecond}},
		{"chaos", inlineFleet{
			n: 6, sections: 5, roundTimeout: 100 * time.Millisecond,
			grid: faulty(100, chaos), vehicle: faulty(200, chaos),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pairReport, pairResults := tc.fleet.play(t, false)
			inlineReport, inlineResults := tc.fleet.play(t, true)
			if !reflect.DeepEqual(pairReport, inlineReport) {
				t.Fatalf("reports differ:\npair   %+v\ninline %+v", pairReport, inlineReport)
			}
			for i := range pairResults {
				if !reflect.DeepEqual(pairResults[i], inlineResults[i]) {
					t.Fatalf("agent %d results differ:\npair   %+v\ninline %+v", i, pairResults[i], inlineResults[i])
				}
			}
			t.Logf("rounds=%d epoch=%d retries=%d stale=%d", inlineReport.Rounds,
				inlineReport.FinalEpoch, inlineReport.Retries, inlineReport.StaleDropped)
		})
	}
}

// slowLink delays every fourth request a vehicle sends by a second,
// unless the sender's ctx ends first — a vehicle-side link far slower
// than the coordinator's RoundTimeout.
type slowLink struct {
	v2i.Transport
	sends, cut atomic.Int64
}

func (s *slowLink) Send(ctx context.Context, env v2i.Envelope) error {
	if s.sends.Add(1)%4 == 2 {
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			s.cut.Add(1)
			return ctx.Err()
		}
	}
	return s.Transport.Send(ctx, env)
}

// timedLink records the longest Send through it.
type timedLink struct {
	v2i.Transport
	longest atomic.Int64
}

func (l *timedLink) Send(ctx context.Context, env v2i.Envelope) error {
	start := time.Now()
	err := l.Transport.Send(ctx, env)
	if took := int64(time.Since(start)); took > l.longest.Load() {
		l.longest.Store(took)
	}
	return err
}

// TestInlineSlowVehicleNeverHoldsCoordinator: an inline agent's reply
// runs on the coordinator's goroutine under its exchange deadline, so a
// vehicle-side delay longer than RoundTimeout is cut short at the
// deadline and counts as a lost frame — the coordinator re-quotes, the
// agent lives on, and the session converges.
func TestInlineSlowVehicleNeverHoldsCoordinator(t *testing.T) {
	const roundTimeout = 20 * time.Millisecond
	var slow []*slowLink
	var timed []*timedLink
	report, results := inlineFleet{
		n: 4, sections: 4, roundTimeout: roundTimeout,
		grid: func(_ int, l v2i.Transport) v2i.Transport {
			tl := &timedLink{Transport: l}
			timed = append(timed, tl)
			return tl
		},
		vehicle: func(_ int, l v2i.Transport) v2i.Transport {
			sl := &slowLink{Transport: l}
			slow = append(slow, sl)
			return sl
		},
	}.play(t, true)
	var cut int64
	for _, s := range slow {
		cut += s.cut.Load()
	}
	if cut == 0 || report.Retries == 0 {
		t.Fatalf("no delayed reply was cut short (cut %d, retries %d)", cut, report.Retries)
	}
	for i, l := range timed {
		if took := time.Duration(l.longest.Load()); took > roundTimeout+200*time.Millisecond {
			t.Fatalf("vehicle %d: a grid Send held the coordinator %v, RoundTimeout %v", i, took, roundTimeout)
		}
	}
	for i, r := range results {
		if !r.Converged {
			t.Errorf("agent %d stopped before the convergence announcement", i)
		}
	}
	t.Logf("rounds=%d retries=%d cut=%d", report.Rounds, report.Retries, cut)
}
