// Command olevgridd is the self-protecting multi-session service
// daemon: it hosts many concurrent pricing-game sessions (one per
// arterial/fleet, the per-arterial games of the source paper) behind
// an HTTP/JSON admin API, with the service layer's full robustness
// envelope:
//
//   - admission control + backpressure — a bounded session table and a
//     solver-capacity semaphore; creates beyond either bound are
//     rejected with an explicit 503 + Retry-After, never queued;
//   - graceful drain — SIGTERM/SIGINT stops admissions, lets in-flight
//     sessions finish within -drain-grace, and checkpoints the rest to
//     the journal directory;
//   - crash-restart — boot scans -journal-dir and resumes every
//     interrupted session from its manifest + checkpoint store (a
//     CRC-framed segment log with snapshot compaction, <id>.store),
//     warm where the checkpoint decodes, cold otherwise.
//
// The admin surface (see internal/serve.Handler):
//
//	POST   /api/v1/sessions        create (201, or 503 + Retry-After)
//	GET    /api/v1/sessions        list
//	GET    /api/v1/sessions/{id}   inspect
//	DELETE /api/v1/sessions/{id}   cancel
//	GET    /healthz                liveness
//	GET    /readyz                 readiness (503 when draining or full)
//	GET    /metrics                Prometheus exposition (+ /metrics.json, /debug/vars)
//
// With -scenario the daemon admits one session compiled from a named
// city archetype (or a scenario .json file) at boot, after journal
// resume — the systemd-unit way to bring an arterial up under a
// declared workload. The same archetypes are available to any client
// via the "scenario" field on the create-session request.
//
// Usage:
//
//	olevgridd [-addr :8080] [-max-sessions 1024] [-max-concurrent 0]
//	          [-drain-grace 5s] [-retry-after 1s] [-max-wall 2m]
//	          [-journal-dir DIR] [-fsync always|interval|never]
//	          [-scenario rush-hour-surge]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"olevgrid/internal/obs"
	"olevgrid/internal/scenario"
	"olevgrid/internal/serve"
	"olevgrid/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "olevgridd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "admin API listen address")
	maxSessions := flag.Int("max-sessions", 1024, "bounded session table size; creates beyond it get 503")
	maxConcurrent := flag.Int("max-concurrent", 0, "solver-capacity semaphore; 0 means max-sessions")
	drainGrace := flag.Duration("drain-grace", 5*time.Second, "how long a drain lets in-flight sessions finish before checkpointing them")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on overload rejections")
	maxWall := flag.Duration("max-wall", 2*time.Minute, "default per-session wall budget")
	journalDir := flag.String("journal-dir", "", "directory for session manifests + checkpoint stores; empty disables durability")
	fsync := flag.String("fsync", "", `checkpoint durability policy: "always" (default; acked saves survive power loss), "interval" or "never"`)
	scenarioRef := flag.String("scenario", "", "admit one boot session from this named city archetype or scenario .json file")
	flag.Parse()

	if _, err := store.ParseFsyncPolicy(*fsync); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	sink := obs.NewEventSink(1024)

	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return fmt.Errorf("journal dir: %w", err)
		}
	}
	srv := serve.NewServer(serve.Config{
		MaxSessions:    *maxSessions,
		MaxConcurrent:  *maxConcurrent,
		DrainGrace:     *drainGrace,
		DefaultMaxWall: *maxWall,
		RetryAfter:     *retryAfter,
		JournalDir:     *journalDir,
		Fsync:          *fsync,
		Registry:       reg,
		Sink:           sink,
	})

	// Crash-restart: resume whatever the previous incarnation left
	// mid-run before accepting new work, and say what happened to each.
	decisions, err := srv.ResumeScanned()
	if err != nil {
		return fmt.Errorf("boot resume: %w", err)
	}
	for _, d := range decisions {
		if d.Reason != "" {
			fmt.Fprintf(os.Stderr, "olevgridd: boot scan %s: %s (%s)\n", d.ID, d.Action, d.Reason)
		} else {
			fmt.Fprintf(os.Stderr, "olevgridd: boot scan %s: %s\n", d.ID, d.Action)
		}
	}

	if *scenarioRef != "" {
		spec, err := bootScenarioSpec(*scenarioRef)
		if err != nil {
			return err
		}
		sess, err := srv.Create(spec)
		if err != nil {
			return fmt.Errorf("boot scenario %s: %w", *scenarioRef, err)
		}
		fmt.Fprintf(os.Stderr, "olevgridd: boot scenario %s admitted as session %s\n", *scenarioRef, sess.ID)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "olevgridd: serving on %s (max sessions %d, drain grace %s)\n",
		*addr, *maxSessions, *drainGrace)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		srv.Close()
		return fmt.Errorf("admin listener: %w", err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "olevgridd: %s: draining (grace %s)\n", sig, *drainGrace)
	}

	// Drain order matters: admissions close first (creates now get 503
	// and /readyz flips), in-flight sessions get the grace to finish,
	// stragglers checkpoint; only then does the listener stop, so
	// inspection endpoints answer throughout the drain.
	interrupted := srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	fmt.Fprintf(os.Stderr, "olevgridd: drained; %d sessions checkpointed for resume\n", interrupted)
	return nil
}

// bootScenarioSpec builds the boot session's create request. A
// registered name rides the server's own scenario expansion (the same
// path an API client's "scenario" field takes, so the session records
// from_scenario); a .json file is compiled here, because the admin
// boundary accepts names only — it never opens files.
func bootScenarioSpec(ref string) (serve.SessionSpec, error) {
	if _, ok := scenario.Get(ref); ok {
		return serve.SessionSpec{Scenario: ref}, nil
	}
	sc, err := scenario.Load(ref)
	if err != nil {
		return serve.SessionSpec{}, err
	}
	p, err := sc.SessionParams()
	if err != nil {
		return serve.SessionSpec{}, err
	}
	spec := serve.SessionSpec{
		Vehicles:       p.Vehicles,
		Sections:       p.Sections,
		LineCapacityKW: p.LineCapacityKW,
		BetaPerKWh:     p.BetaPerKWh,
		Seed:           p.Seed,
		FromScenario:   sc.Name,
	}
	for _, o := range p.Outages {
		spec.Outages = append(spec.Outages, serve.OutageSpec{
			Section: o.Section, DownRound: o.DownRound, UpRound: o.UpRound,
		})
	}
	return spec, nil
}
