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
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/workload"
)

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	// Proto selects the decision transport: "bin" (default) or "json".
	Proto string
	// Devices is the concurrent device count (default 8).
	Devices int
	// Periods is the decide count per device (default 200) — the run is
	// work-based, not time-based, so the completeness invariant is exact.
	Periods int
	// Seed derives the fault schedule and per-device streams (default 1).
	Seed uint64
	// Scenario is the workload every device runs (default "gaming").
	Scenario string
	// Epsilon is the per-session exploration rate. Non-zero is the
	// interesting setting: exploration draws make decisions stateful, so
	// any dedup or resume bug shows up as a diverged sequence.
	Epsilon float64
	// RewardEvery posts a reward every that many periods (default 25;
	// negative disables).
	RewardEvery int
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

// The chaos clients' per-attempt deadline, and their total retry window
// per call, which must cover the restart gap.
const (
	chaosCallTimeout = 2 * time.Second
	chaosRetryBudget = 30 * time.Second
)

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Proto == "" {
		c.Proto = "bin"
	}
	if c.Devices == 0 {
		c.Devices = 8
	}
	if c.Periods == 0 {
		c.Periods = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == "" {
		c.Scenario = "gaming"
	}
	if c.RewardEvery == 0 {
		c.RewardEvery = 25
	}
	return c
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if c.Proto != "bin" && c.Proto != "json" {
		return fmt.Errorf("serve: unknown chaos proto %q (want bin or json)", c.Proto)
	}
	if c.Devices < 1 || c.Periods < 1 {
		return fmt.Errorf("serve: chaos needs at least one device and period, got %d/%d", c.Devices, c.Periods)
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

// fleet is the device side of the run.
func (c ChaosConfig) fleet() FleetConfig {
	return FleetConfig{
		Devices:     c.Devices,
		Periods:     c.Periods,
		Seed:        c.Seed,
		Scenario:    c.Scenario,
		Epsilon:     c.Epsilon,
		RewardEvery: c.RewardEvery,
	}
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

// incarnation is one server process stand-in: a Server plus its listener
// and, for the json proto, the HTTP front end.
type incarnation struct {
	srv  *Server
	ln   net.Listener
	hs   *http.Server
	done chan error
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
	inc := &incarnation{srv: srv, ln: ln, done: make(chan error, 1)}
	if cfg.Proto == "bin" {
		go func() { inc.done <- inc.srv.ServeBin(ln) }()
	} else {
		inc.hs = &http.Server{Handler: srv.Handler()}
		go func() { inc.done <- inc.hs.Serve(ln) }()
	}
	return inc, nil
}

// crash is the abrupt death: connections reset, nothing flushed, no
// farewell checkpoint — what SIGKILL or a panic leaves behind.
func (inc *incarnation) crash() {
	if inc.hs != nil {
		inc.hs.Close()
	}
	inc.srv.Close()
	inc.ln.Close()
	<-inc.done
}

// drain is the graceful death: stop accepting, let in-flight work finish,
// publish the final checkpoint, then close.
func (inc *incarnation) drain(ctx context.Context) error {
	if inc.hs != nil {
		// Chaos clients keep sending on keep-alive connections, so a
		// graceful Shutdown rarely goes idle — give it a short window,
		// then force-close the stragglers (their calls retry).
		hctx, hcancel := context.WithTimeout(ctx, 500*time.Millisecond)
		_ = inc.hs.Shutdown(hctx)
		hcancel()
		inc.hs.Close()
	}
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := inc.srv.Drain(dctx)
	inc.srv.Close()
	inc.ln.Close()
	<-inc.done
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
	serverAddr := inc.ln.Addr().String()
	var incMu sync.Mutex // guards inc across the restart controller

	faults := cfg.Faults
	if faults.Seed == 0 {
		faults.Seed = cfg.Seed
	}
	proxy, err := chaos.NewProxy(serverAddr, faults)
	if err != nil {
		inc.crash()
		return rep, err
	}

	// Clients, pointed at the proxy.
	var bc *BinClient
	var hc *Client
	var open func(context.Context, SessionOptions) (*RemoteSession, error)
	if cfg.Proto == "bin" {
		bc = NewBinClient(proxy.Addr())
		bc.SetCallTimeout(chaosCallTimeout)
		bc.SetRetryBudget(chaosRetryBudget)
		open = bc.OpenSession
	} else {
		hc = NewClient("http://" + proxy.Addr())
		hc.SetCallTimeout(chaosCallTimeout)
		hc.SetRetryBudget(chaosRetryBudget)
		open = hc.CreateSession
	}

	total := uint64(cfg.Devices) * uint64(cfg.Periods)
	var acked atomic.Uint64

	// Restart controller: once half the fleet's decisions are acked, kill
	// the incarnation and start epoch 2 on the same address. Clients ride
	// it out through retry + resume. Devices that have seen the threshold
	// hold before their next decide until the restart lands (otherwise a
	// fast fleet can drain the whole run in the controller's poll window
	// and the restart exercises nothing); devices that haven't observed it
	// yet keep frames in flight across the kill.
	restartDone := make(chan error, 1)
	restartGate := make(chan struct{})
	if cfg.Restart == "" {
		close(restartGate)
		restartDone <- nil
	} else {
		go func() {
			defer close(restartGate)
			guard := time.Now().Add(60 * time.Second)
			for acked.Load() < total/2 {
				if ctx.Err() != nil {
					restartDone <- ctx.Err()
					return
				}
				if time.Now().After(guard) {
					restartDone <- fmt.Errorf("serve: chaos fleet stalled before restart point (%d/%d acked)", acked.Load(), total)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			incMu.Lock()
			old := inc
			incMu.Unlock()
			var derr error
			if cfg.Restart == "drain" {
				derr = old.drain(ctx)
				if derr == nil {
					// The farewell checkpoint must exist and decode.
					if _, lerr := LoadCheckpoint(cfg.CheckpointPath); lerr != nil {
						derr = fmt.Errorf("serve: drain checkpoint unreadable: %w", lerr)
					} else {
						rep.DrainCheckpoint = true
					}
				}
			} else {
				old.crash()
			}
			if derr != nil {
				restartDone <- derr
				return
			}
			next, serr := startIncarnation(model, cfg, serverAddr, 2)
			if serr != nil {
				restartDone <- serr
				return
			}
			incMu.Lock()
			inc = next
			incMu.Unlock()
			rep.Restarts++
			restartDone <- nil
		}()
	}
	// The gate counts its own acks: a device adds exactly one per acked
	// decide, so the count only grows and the controller's threshold is
	// always reached.
	afterAck := func() error {
		if acked.Add(1) >= total/2 {
			select {
			case <-restartGate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	fleet := cfg.fleet()
	run := RunFleet(ctx, fleet, open, afterAck)
	restartErr := <-restartDone

	// Teardown, collecting the final incarnation's metrics first.
	incMu.Lock()
	final := inc
	incMu.Unlock()
	m := final.srv.MetricsSnapshot()
	rep.Server = &m
	final.crash()
	proxy.Close()
	if bc != nil {
		st := bc.TransportStats()
		rep.Dials, rep.Retries, rep.Resumes = st.Dials, st.Retries, st.Resumes
		bc.Close()
	}
	if hc != nil {
		st := hc.TransportStats()
		rep.Retries, rep.Resumes = st.Retries, st.Resumes
		hc.CloseIdleConnections()
	}
	ps := proxy.Stats()
	rep.ProxyConns, rep.ProxyDrops, rep.ProxyStalls = ps.Conns, ps.Drops, ps.Stalls
	rep.ProxyPartials, rep.ProxyCorrupts, rep.ProxyDelays = ps.Partials, ps.Corrupts, ps.Delays
	rep.Decisions = run.Decisions
	rep.RewardsAcked = run.Rewards
	rep.ServerRewards = m.Rewards
	rep.RewardsDeduped = m.RewardsDeduped
	rep.DurationS = time.Since(start).Seconds()

	if rep.Mismatches, err = fleet.OracleMismatches(model, run); err != nil {
		return rep, err
	}
	rep.Hygiene.End()
	return rep, chaosVerdict(cfg, run, rep, restartErr)
}

// chaosVerdict judges a chaos run's evidence and reports every violated
// invariant: the fleet invariants, a failed restart, and — without a
// restart — a reward ledger that differs from the client-acked count.
func chaosVerdict(cfg ChaosConfig, run *FleetRun, rep *ChaosReport, restartErr error) error {
	var errs []error
	if restartErr != nil {
		errs = append(errs, fmt.Errorf("serve: chaos restart: %w", restartErr))
	}
	errs = append(errs, FleetVerdict(cfg.fleet(), run, rep.Mismatches, rep.Hygiene))
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
