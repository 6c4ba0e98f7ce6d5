package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"olevgrid/internal/sched"
)

// TestFleetCloseWithinGrace runs a converged session over the fleet's
// in-memory links and requires the coordinator's Close — a farewell
// Bye to every agent, most of which have already exited on the Run's
// own Bye — to return well inside its ShutdownGrace: the link buffer
// must hold every frame the grid sends after an agent stops reading,
// or a Bye would wait out the grace. It runs on clean links and under
// chaos that duplicates and reorders frames.
func TestFleetCloseWithinGrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chaos ChaosSpec
	}{
		{"clean", ChaosSpec{}},
		{"duplicates", ChaosSpec{DuplicateRate: 0.5, ReorderRate: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := SessionSpec{Vehicles: 12, Sections: 8, Seed: 5, Chaos: tc.chaos}.withDefaults(time.Minute)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			f, err := newFleet(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer f.stop()
			cfg := coordinatorConfig(spec, nil, nil)
			coord, err := sched.NewCoordinator(cfg, f.links)
			if err != nil {
				t.Fatal(err)
			}
			report, err := coord.Run(ctx)
			if err != nil || !report.Converged {
				t.Fatalf("run: converged=%v err=%v", report.Converged, err)
			}
			start := time.Now()
			_ = coord.Close()
			if took := time.Since(start); took > cfg.ShutdownGrace/5 {
				t.Fatalf("Close took %v of its %v grace", took, cfg.ShutdownGrace)
			}
		})
	}
}

// TestInlineFleetStartsNoGoroutine: a fleet's
// agents answer on the sender's goroutine, so assembling a fleet —
// clean or behind the chaos injector — starts no goroutine per vehicle.
func TestInlineFleetStartsNoGoroutine(t *testing.T) {
	for _, chaos := range []ChaosSpec{{}, {DropRate: 0.1, DuplicateRate: 0.1, ReorderRate: 0.1, MaxDelayMS: 5}} {
		spec := SessionSpec{Vehicles: 50, Sections: 8, Seed: 5, Chaos: chaos}.withDefaults(time.Minute)
		before := runtime.NumGoroutine()
		f, err := newFleet(spec)
		if err != nil {
			t.Fatal(err)
		}
		after := runtime.NumGoroutine()
		f.stop()
		if after > before {
			t.Fatalf("chaos %+v: a %d-vehicle fleet started %d goroutines", chaos, spec.Vehicles, after-before)
		}
	}
}
