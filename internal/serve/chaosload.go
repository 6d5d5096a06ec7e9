// Chaos harness: the executable proof of the serving tier's resilience
// story. RunChaos drives a fleet of simulated devices through a
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
	"fmt"
	"net"
	"net/http"
	"runtime"
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
	// SessionTTL passes through to the server config.
	SessionTTL time.Duration
	// CallTimeout is the client per-attempt deadline (default 2s);
	// RetryBudget the total retry window per call (default 30s — it must
	// cover the restart gap).
	CallTimeout time.Duration
	RetryBudget time.Duration
}

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
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 30 * time.Second
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

// ChaosReport is the outcome of a chaos run. RunChaos also returns a
// non-nil error when any invariant is violated; the report carries the
// evidence either way.
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

	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapAllocStart  uint64 `json:"heap_alloc_start"`
	HeapAllocEnd    uint64 `json:"heap_alloc_end"`

	Server *Metrics `json:"server,omitempty"` // final incarnation's snapshot
}

// chaosPeriodS is the simulated control period (matches the load
// generator's default).
const chaosPeriodS = 0.05

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
	srv, err := New(model, nil, Config{
		Epoch:          epoch,
		SessionTTL:     cfg.SessionTTL,
		CheckpointPath: cfg.CheckpointPath,
	})
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

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep := &ChaosReport{
		Proto: cfg.Proto, Devices: cfg.Devices, Periods: cfg.Periods,
		GoroutinesStart: runtime.NumGoroutine(), HeapAllocStart: ms.HeapAlloc,
	}
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
	var open func(context.Context, SessionOptions) (deviceSession, error)
	if cfg.Proto == "bin" {
		bc = NewBinClient(proxy.Addr())
		bc.SetCallTimeout(cfg.CallTimeout)
		bc.SetRetryBudget(cfg.RetryBudget)
		open = func(ctx context.Context, o SessionOptions) (deviceSession, error) { return bc.OpenSession(ctx, o) }
	} else {
		hc = NewClient("http://" + proxy.Addr())
		hc.SetCallTimeout(cfg.CallTimeout)
		hc.SetRetryBudget(cfg.RetryBudget)
		open = func(ctx context.Context, o SessionOptions) (deviceSession, error) { return hc.CreateSession(ctx, o) }
	}

	total := uint64(cfg.Devices) * uint64(cfg.Periods)
	var acked atomic.Uint64
	var rewardsAcked atomic.Uint64

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

	// The fleet. Each device records its full decision sequence.
	sequences := make([][]int, cfg.Devices)
	devErrs := make([]error, cfg.Devices)
	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			seed := DeviceSeed(cfg.Seed, idx)
			sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: seed})
			if err != nil {
				devErrs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(_ int, obs []Observation) ([]int, error) {
				lv, err := sess.Decide(ctx, obs)
				if err == nil {
					if acked.Add(1) >= total/2 {
						select {
						case <-restartGate:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
				}
				return lv, err
			}
			reward := func(r float64) error {
				_, err := sess.Reward(ctx, r)
				if err == nil {
					rewardsAcked.Add(1)
				}
				return err
			}
			sequences[idx], err = chaosDevice(cfg, seed, decide, reward)
			if err != nil {
				devErrs[idx] = fmt.Errorf("device %d: %w", idx, err)
				return
			}
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := sess.Close(cctx); err != nil {
				devErrs[idx] = fmt.Errorf("device %d close: %w", idx, err)
			}
		}(d)
	}
	wg.Wait()
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
	rep.Decisions = acked.Load()
	rep.RewardsAcked = rewardsAcked.Load()
	rep.ServerRewards = m.Rewards
	rep.RewardsDeduped = m.RewardsDeduped
	rep.DurationS = time.Since(start).Seconds()

	// Fault-free oracle: the same fleet served by an in-process server.
	// Every device's sequence must match exactly — faults may cost time,
	// never correctness.
	if err := func() error {
		oracle, err := New(model, nil, Config{})
		if err != nil {
			return err
		}
		defer oracle.Close()
		for idx := 0; idx < cfg.Devices; idx++ {
			if devErrs[idx] != nil {
				continue
			}
			seed := DeviceSeed(cfg.Seed, idx)
			sess, err := oracle.CreateSession(SessionOptions{Epsilon: cfg.Epsilon, Seed: seed})
			if err != nil {
				return err
			}
			want, err := chaosDevice(cfg, seed, func(_ int, obs []Observation) ([]int, error) {
				return sess.Decide(obs)
			}, nil)
			if err != nil {
				return fmt.Errorf("oracle device %d: %w", idx, err)
			}
			if !equalInts(sequences[idx], want) {
				rep.Mismatches++
			}
		}
		return nil
	}(); err != nil {
		return rep, err
	}

	// Hygiene: goroutines must settle back to the baseline and the heap
	// must not have ballooned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > rep.GoroutinesStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.GoroutinesEnd = runtime.NumGoroutine()
	rep.HeapAllocEnd = ms.HeapAlloc

	switch {
	case restartErr != nil:
		return rep, fmt.Errorf("serve: chaos restart: %w", restartErr)
	case firstErr(devErrs) != nil:
		return rep, fmt.Errorf("serve: chaos device failed: %w", firstErr(devErrs))
	case rep.Decisions != total:
		return rep, fmt.Errorf("serve: chaos acked %d decisions, want %d", rep.Decisions, total)
	case rep.Mismatches > 0:
		return rep, fmt.Errorf("serve: %d device(s) diverged from the fault-free oracle", rep.Mismatches)
	case cfg.Restart == "" && rep.ServerRewards != rep.RewardsAcked:
		// Exactly-once: every client-acked reward landed on the ledger once.
		// A retried frame that double-counted shows up as ServerRewards >
		// RewardsAcked; a lost ack the dedup path swallowed shows the
		// reverse. Restart runs skip this — the final incarnation's counters
		// don't cover rewards applied before the kill.
		return rep, fmt.Errorf("serve: chaos reward ledger %d != %d client-acked (deduped %d)",
			rep.ServerRewards, rep.RewardsAcked, rep.RewardsDeduped)
	case rep.GoroutinesEnd > rep.GoroutinesStart:
		return rep, fmt.Errorf("serve: chaos leaked goroutines: %d before, %d after", rep.GoroutinesStart, rep.GoroutinesEnd)
	case rep.HeapAllocEnd > rep.HeapAllocStart+256<<20:
		return rep, fmt.Errorf("serve: chaos heap grew %d bytes", rep.HeapAllocEnd-rep.HeapAllocStart)
	}
	return rep, nil
}

// chaosDevice runs one device's full chip-simulation life — the shared
// RunDeviceSim loop, period-counted so completeness is exact, with the
// decision sequence recorded for the oracle diff.
func chaosDevice(cfg ChaosConfig, seed uint64, decide func(int, []Observation) ([]int, error), reward func(float64) error) ([]int, error) {
	return RunDeviceSim(DeviceSimConfig{
		Scenario:    cfg.Scenario,
		Periods:     cfg.Periods,
		Seed:        seed,
		PeriodS:     chaosPeriodS,
		RewardEvery: cfg.RewardEvery,
	}, decide, reward)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
