// Chaos harness: the executable proof of the serving tier's resilience
// story. RunChaos drives the RunFleet device fleet through a
// fault-injecting TCP proxy (internal/chaos) at a live server, optionally
// killing and restarting the server mid-run, and then holds the run to
// the invariants that make "resilient" a checkable claim rather than a
// vibe:
//
//   - completeness: every device acknowledges exactly Periods decisions —
//     none lost to a dropped connection, none duplicated by a retry;
//   - determinism: each device's full decision sequence is byte-identical
//     to a fault-free oracle served in-process from the same model, so
//     retries, dedup, and resume never changed a single decision;
//   - hygiene: goroutines return to their pre-run level and heap growth
//     stays bounded — the fault paths leak neither.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/workload"
)

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	// FleetConfig is the device fleet (defaults: FleetConfig.WithDefaults).
	// Its Seed also derives the fault schedule.
	FleetConfig
	// Proto selects the decision transport: "bin" (default) or "json".
	Proto string
	// Faults is the injected fault schedule. Its Seed defaults to Seed.
	// The zero value injects nothing — the differential baseline.
	Faults chaos.Config
	// Restart kills the server mid-run (once half the decisions are
	// acked) and starts a fresh incarnation on the same address: "" never,
	// "crash" abrupt close, "drain" graceful drain with a final
	// checkpoint.
	Restart string
	// CheckpointPath receives the drain-mode final checkpoint; the
	// harness verifies it loads. Required when Restart is "drain".
	CheckpointPath string
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	c.FleetConfig = c.FleetConfig.WithDefaults()
	if c.Proto == "" {
		c.Proto = "bin"
	}
	return c
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if err := CheckProto(c.Proto); err != nil {
		return err
	}
	if err := c.FleetConfig.Validate(); err != nil {
		return err
	}
	switch c.Restart {
	case "", "crash", "drain":
	default:
		return fmt.Errorf("serve: unknown restart mode %q (want crash or drain)", c.Restart)
	}
	if c.Restart == "drain" && c.CheckpointPath == "" {
		return fmt.Errorf("serve: restart mode drain needs a checkpoint path")
	}
	return nil
}

// ChaosReport is the outcome of a chaos run. RunChaos also returns a
// non-nil error when any invariant is violated (chaosVerdict); the report
// carries the evidence either way.
type ChaosReport struct {
	Proto     string  `json:"proto"`
	Devices   int     `json:"devices"`
	Periods   int     `json:"periods"`
	DurationS float64 `json:"duration_s"`
	Decisions uint64  `json:"decisions"` // acked decides; must equal Devices×Periods

	Dials   uint64 `json:"dials"`   // transport connections established
	Retries uint64 `json:"retries"` // call attempts beyond the first
	Resumes uint64 `json:"resumes"` // sessions re-created from mirrors

	ProxyConns    uint64 `json:"proxy_conns"`
	ProxyDrops    uint64 `json:"proxy_drops"`
	ProxyStalls   uint64 `json:"proxy_stalls"`
	ProxyPartials uint64 `json:"proxy_partials"`
	ProxyCorrupts uint64 `json:"proxy_corrupts"`
	ProxyDelays   uint64 `json:"proxy_delays"`

	Restarts        int  `json:"restarts"`
	DrainCheckpoint bool `json:"drain_checkpoint,omitempty"` // drain-mode checkpoint verified

	// RewardsAcked counts reward reports acknowledged exactly once
	// client-side; ServerRewards is the server ledger's count and
	// RewardsDeduped its replay-answered retries. Without a restart the
	// first two must be equal — a retried reward that double-counted would
	// show up as ServerRewards > RewardsAcked.
	RewardsAcked   uint64 `json:"rewards_acked"`
	ServerRewards  uint64 `json:"server_rewards"`
	RewardsDeduped uint64 `json:"rewards_deduped"`

	Mismatches int `json:"mismatches"` // devices whose sequence diverged from the oracle

	Hygiene

	Server *Metrics `json:"server,omitempty"` // final incarnation's snapshot
}

// incarnation is one server process stand-in: a Server and its front.
type incarnation struct {
	srv   *Server
	front *Front
}

// startIncarnation listens on addr ("127.0.0.1:0" for the first, the
// fixed previous address after a restart — retried briefly while the old
// socket releases) and serves the chosen protocol.
func startIncarnation(model *Model, cfg ChaosConfig, addr string, epoch uint32) (*incarnation, error) {
	srv, err := New(model, nil, Config{Epoch: epoch, CheckpointPath: cfg.CheckpointPath})
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			srv.Close()
			return nil, fmt.Errorf("serve: chaos relisten on %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	front, err := ServeFront(srv, cfg.Proto, ln)
	if err != nil {
		ln.Close()
		srv.Close()
		return nil, err
	}
	return &incarnation{srv: srv, front: front}, nil
}

// crash is the abrupt death: connections reset, nothing flushed, no
// farewell checkpoint — what SIGKILL or a panic leaves behind.
func (inc *incarnation) crash() {
	inc.front.Close()
	inc.srv.Close()
}

// drain is the graceful death: stop accepting, let in-flight work finish,
// publish the final checkpoint, then close.
func (inc *incarnation) drain(ctx context.Context) error {
	if hs := inc.front.hs; hs != nil {
		// Chaos clients keep sending on keep-alive connections, so a
		// graceful Shutdown rarely goes idle — give it a short window,
		// then force-close the stragglers (their calls retry).
		hctx, hcancel := context.WithTimeout(ctx, 500*time.Millisecond)
		_ = hs.Shutdown(hctx)
		hcancel()
	}
	inc.front.Close()
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := inc.srv.Drain(dctx)
	inc.srv.Close()
	return err
}

// RunChaos executes one chaos schedule against model and checks every
// invariant. The returned report is non-nil whenever the run got far
// enough to collect evidence, even on error.
func RunChaos(ctx context.Context, model *Model, cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := workload.ByName(cfg.Scenario); err != nil {
		return nil, err
	}

	rep := &ChaosReport{Proto: cfg.Proto, Devices: cfg.Devices, Periods: cfg.Periods}
	rep.Hygiene.Start()
	start := time.Now()

	// Server incarnation 1, fronted by the chaos proxy. Clients only ever
	// see the proxy address, which survives the restart.
	inc, err := startIncarnation(model, cfg, "127.0.0.1:0", 1)
	if err != nil {
		return rep, err
	}
	serverAddr := inc.front.ln.Addr().String()
	faults := cfg.Faults
	if faults.Seed == 0 {
		faults.Seed = cfg.Seed
	}
	proxy, err := chaos.NewProxy(serverAddr, faults)
	if err != nil {
		inc.crash()
		return rep, err
	}
	client, err := NewFleetClient(cfg.Proto, proxy.Addr())
	if err != nil {
		proxy.Close()
		inc.crash()
		return rep, err
	}

	// The restart: once half the fleet's decisions are acked, the
	// incarnation dies and epoch 2 starts on the same address. Clients
	// ride it out through retry + resume. The event runs on RunFleet's
	// controller, which RunFleet waits for, so inc needs no lock.
	var events []FleetEvent
	if cfg.Restart != "" {
		events = append(events, FleetEvent{At: uint64(cfg.Devices) * uint64(cfg.Periods) / 2, Do: func() error {
			if cfg.Restart == "crash" {
				inc.crash()
			} else {
				if err := inc.drain(ctx); err != nil {
					return fmt.Errorf("serve: chaos drain: %w", err)
				}
				// The farewell checkpoint must exist and decode.
				if _, err := LoadCheckpoint(cfg.CheckpointPath); err != nil {
					return fmt.Errorf("serve: drain checkpoint unreadable: %w", err)
				}
				rep.DrainCheckpoint = true
			}
			next, err := startIncarnation(model, cfg, serverAddr, 2)
			if err != nil {
				return err
			}
			inc = next
			rep.Restarts++
			return nil
		}})
	}
	run := RunFleet(ctx, cfg.FleetConfig, client.Open, events...)

	// Teardown, collecting the final incarnation's metrics first.
	m := inc.srv.MetricsSnapshot()
	rep.Server = &m
	inc.crash()
	proxy.Close()
	st := client.Stats()
	rep.Dials, rep.Retries, rep.Resumes = st.Dials, st.Retries, st.Resumes
	client.Close()
	ps := proxy.Stats()
	rep.ProxyConns, rep.ProxyDrops, rep.ProxyStalls = ps.Conns, ps.Drops, ps.Stalls
	rep.ProxyPartials, rep.ProxyCorrupts, rep.ProxyDelays = ps.Partials, ps.Corrupts, ps.Delays
	rep.Decisions = run.Decisions
	rep.RewardsAcked = run.Rewards
	rep.ServerRewards = m.Rewards
	rep.RewardsDeduped = m.RewardsDeduped
	rep.DurationS = time.Since(start).Seconds()

	if rep.Mismatches, err = cfg.OracleMismatches(model, run); err != nil {
		return rep, err
	}
	rep.Hygiene.End()
	return rep, chaosVerdict(cfg, run, rep)
}

// chaosVerdict judges a chaos run's evidence and reports every violated
// invariant: the fleet invariants (a failed restart among them) and —
// without a restart — a reward ledger that differs from the client-acked
// count.
func chaosVerdict(cfg ChaosConfig, run *FleetRun, rep *ChaosReport) error {
	errs := []error{FleetVerdict(cfg.FleetConfig, run, rep.Mismatches, rep.Hygiene)}
	// Exactly-once: every client-acked reward landed on the ledger once. A
	// retried frame that double-counted shows up as ServerRewards >
	// RewardsAcked; a lost ack the dedup path swallowed shows the reverse.
	// Restart runs skip this — the final incarnation's counters don't
	// cover rewards applied before the kill.
	if cfg.Restart == "" && rep.ServerRewards != rep.RewardsAcked {
		errs = append(errs, fmt.Errorf("serve: chaos reward ledger %d != %d client-acked (deduped %d)",
			rep.ServerRewards, rep.RewardsAcked, rep.RewardsDeduped))
	}
	return errors.Join(errs...)
}
