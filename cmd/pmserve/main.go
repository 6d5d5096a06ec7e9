// Command pmserve hosts a trained power-management policy as a decision
// server on HTTP/JSON and, with -listen-bin, on the binary wire protocol:
// many per-device sessions, each decide served inline against the shared
// Q-table set (frozen, or learned live under -learn), and
// versioned/checksummed checkpointing.
//
// Startup resolves the model in this order:
//
//  1. -checkpoint <path> pointing at an existing file loads it (the file's
//     recorded state configuration is authoritative);
//  2. otherwise a fresh policy is trained on -scenario for -episodes
//     episodes and, when -checkpoint is set, saved there.
//
// Usage:
//
//	pmserve                                # train quickly, serve on :7421
//	pmserve -checkpoint policy.ckpt        # load (or train+save) a checkpoint
//	pmserve -listen-bin 127.0.0.1:7422     # also speak the binary wire protocol
//	pmserve -learn -checkpoint policy.ckpt # apply device rewards as live Q-updates
//
// Endpoints: POST /v1/sessions, POST /v1/sessions/resume,
// POST /v1/sessions/{id}/decide, POST /v1/sessions/{id}/reward,
// DELETE /v1/sessions/{id}, POST /v1/checkpoint, GET /metrics,
// GET /healthz, GET /debug/events, GET /debug/obs.
//
// SIGINT/SIGTERM run the graceful drain — stop accepting, finish in-flight
// requests, publish a final checkpoint when -checkpoint is set — then exit
// 0: the clean-shutdown contract the CI smoke job asserts. pmserve exits 1
// when it cannot start or a listener or the drain fails, and 2 on a usage
// error, a -learn-* flag without -learn among them. Start the next
// incarnation with a bumped -epoch so clients holding sessions from the
// old process detect the restart and transparently resume. -session-ttl
// reaps abandoned sessions. Past 4×-batch decides in flight the server
// sheds decides, answering with a Retry-After hint the clients honor.
// SIGUSR1 dumps the full Prometheus metrics exposition to stderr without
// disturbing serving — the kick-the-tires observability hook when no
// scraper is attached.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rlpm/internal/bench"
	"rlpm/internal/core"
	"rlpm/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is pmserve over args until ctx is cancelled. It returns the exit
// status: 0 after a clean shutdown, 1 when the server cannot start or a
// listener or the drain fails, 2 on a usage error.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:7421", "listen address")
		binAddr    = fs.String("listen-bin", "", "binary-protocol listen address (e.g. 127.0.0.1:7422); empty disables")
		checkpoint = fs.String("checkpoint", "", "checkpoint path: loaded when present, written by POST /v1/checkpoint (and after training)")
		scenario   = fs.String("scenario", "gaming", "training scenario when no checkpoint is loaded")
		episodes   = fs.Int("episodes", 0, "training episodes (0 = quick default)")
		quick      = fs.Bool("quick", true, "train with the ~10x-shrunk quick settings")
		maxBatch   = fs.Int("batch", 256, "max observations in one binary decide window; 4× this bounds the decides in flight")
		seed       = fs.Uint64("seed", 1, "training seed")

		epoch        = fs.Uint("epoch", 1, "server incarnation number; bump on every restart so clients detect stale sessions and resume")
		sessionTTL   = fs.Duration("session-ttl", 0, "reap sessions idle longer than this (0 = never)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window on SIGINT/SIGTERM")

		learn          = fs.Bool("learn", false, "apply device-reported rewards as live Q-updates")
		learnSwapEvery = fs.Int("learn-swap-every", 0, "applied updates per table publication (0 = default 256)")
		learnCkptEvery = fs.Duration("learn-checkpoint-every", 0, "periodically publish the learned tables to -checkpoint (0 = only on drain)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	// A -learn-* setting without -learn would be ignored: refuse it.
	stray := ""
	fs.Visit(func(f *flag.Flag) {
		if !*learn && strings.HasPrefix(f.Name, "learn-") {
			stray = f.Name
		}
	})
	if stray != "" {
		fmt.Fprintf(stderr, "pmserve: -%s needs -learn\n", stray)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pmserve:", err)
		return 1
	}

	srv, err := buildServer(serverParams{
		checkpoint: *checkpoint, scenario: *scenario, episodes: *episodes,
		quick: *quick, maxBatch: *maxBatch, seed: *seed,
		epoch: uint32(*epoch), sessionTTL: *sessionTTL,
		learn: serve.LearnConfig{
			Enabled: *learn, SwapEvery: *learnSwapEvery, CheckpointEvery: *learnCkptEvery,
		},
	}, stderr)
	if err != nil {
		return fail(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "pmserve: serving %d clusters on http://%s\n", srv.Model().Clusters(), ln.Addr())

	// The binary listener rides alongside HTTP against the same sessions;
	// srv.Close (run on shutdown below) tears it and its connections down.
	binDone := make(chan error, 1)
	if *binAddr != "" {
		binLn, err := net.Listen("tcp", *binAddr)
		if err != nil {
			ln.Close()
			return fail(err)
		}
		fmt.Fprintf(stderr, "pmserve: binary protocol on %s\n", binLn.Addr())
		go func() { binDone <- srv.ServeBin(binLn) }()
	} else {
		binDone <- nil
	}

	// SIGUSR1: dump the Prometheus exposition to stderr, as many times as
	// asked — serving is never paused.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer func() {
		signal.Stop(usr1)
		close(usr1)
	}()
	go func() {
		for range usr1 {
			fmt.Fprintln(stderr, "pmserve: SIGUSR1 metrics dump:")
			if err := srv.Registry().WritePrometheus(stderr); err != nil {
				fmt.Fprintln(stderr, "pmserve: metrics dump:", err)
			}
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail(err)
		}
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return fail(fmt.Errorf("shutdown: %w", err))
		}
		<-errCh
		// Graceful half of shutdown: stop the binary listeners, let
		// in-flight frames finish, and publish a final checkpoint so the
		// next incarnation (started with a bumped -epoch) resumes from the
		// exact frozen policy.
		if err := srv.Drain(shCtx); err != nil {
			return fail(fmt.Errorf("drain: %w", err))
		}
	}
	srv.Close() // idempotent; closes the binary listener so ServeBin returns
	if err := <-binDone; err != nil {
		return fail(fmt.Errorf("binary listener: %w", err))
	}
	m := srv.Registry().Snapshot()
	v := func(name string) float64 { return m.Value(name, "") }
	fmt.Fprintf(stderr, "pmserve: served %.0f decisions (%.0f lookups, %.0f batches, mean occupancy %.1f) to %.0f sessions; exiting\n",
		v("serve_decisions_total"), v("serve_lookups_total"), v("serve_batches_total"),
		v("serve_batch_lookups_total")/max(v("serve_batches_total"), 1), v("serve_sessions_created_total"))
	return 0
}

type serverParams struct {
	checkpoint, scenario string
	episodes, maxBatch   int
	quick                bool
	seed                 uint64
	epoch                uint32
	sessionTTL           time.Duration
	learn                serve.LearnConfig
}

// buildServer checks the server config, resolves the model (checkpoint or
// fresh training), and assembles the server, reporting what it loaded,
// trained and saved on stderr.
func buildServer(p serverParams, stderr io.Writer) (*serve.Server, error) {
	cfg := serve.Config{
		MaxBatch: p.maxBatch, CheckpointPath: p.checkpoint,
		Epoch: p.epoch, SessionTTL: p.sessionTTL,
		Learn: p.learn,
	}
	// Refuse a bad config before training, which takes seconds.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var model *serve.Model
	loadedCheckpoint := false
	if p.checkpoint != "" {
		if _, err := os.Stat(p.checkpoint); err == nil {
			m, err := serve.LoadModel(p.checkpoint, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			model = m
			fmt.Fprintf(stderr, "pmserve: loaded checkpoint %s\n", p.checkpoint)
			loadedCheckpoint = true
		}
	}
	if model == nil {
		opt := bench.DefaultOptions()
		opt.Quick = p.quick
		opt.Seed = p.seed
		if p.episodes > 0 {
			opt.TrainEpisodes = p.episodes
			opt.Quick = false
		}
		fmt.Fprintf(stderr, "pmserve: training on %q (%d episodes, quick=%v)...\n", p.scenario, opt.TrainEpisodes, opt.Quick)
		var err error
		model, _, err = bench.TrainedServeModel(bench.ServeOptions{Options: opt, Scenario: p.scenario})
		if err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(model, nil, cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case !loadedCheckpoint && p.checkpoint != "":
		n, err := serve.SaveCheckpoint(p.checkpoint, srv.Model().Snapshot())
		if err != nil {
			srv.Close()
			return nil, err
		}
		srv.MarkCheckpoint(time.Now())
		srv.Events().Addf("checkpoint", "saved fresh checkpoint %s (%d bytes)", p.checkpoint, n)
		fmt.Fprintf(stderr, "pmserve: saved fresh checkpoint %s (%d bytes)\n", p.checkpoint, n)
	case loadedCheckpoint:
		srv.MarkCheckpoint(time.Now())
		srv.Events().Addf("checkpoint", "loaded %s", p.checkpoint)
	}
	return srv, nil
}
