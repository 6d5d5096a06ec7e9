// Rebalance harness: the executable proof of the sharded tier's handoff
// story. RunRebalance drives the serve.RunFleet device fleet through the
// router at an N-shard fleet — optionally through a fault-injecting proxy,
// optionally removing (or killing) a shard and adding a fresh one mid-run
// — and holds the run to the single-process invariants:
//
//   - completeness: every device acks exactly Periods decisions — a
//     handoff may cost a resume round trip, never a decision;
//   - determinism: each device's decision sequence is byte-identical to a
//     fault-free single-process oracle over the same model, so sharding,
//     checkpoint hydration, routing, and handoff changed nothing;
//   - hygiene: goroutines and heap settle back to baseline.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/serve"
	"rlpm/internal/workload"
)

// RebalanceConfig parameterizes a sharded differential run.
type RebalanceConfig struct {
	// Proto selects the device transport through the router: "bin"
	// (default) or "json".
	Proto string
	// Devices is the concurrent device count (default 12).
	Devices int
	// Periods is the decide count per device (default 200).
	Periods int
	// Seed derives the ring, fault schedule, and per-device streams
	// (default 1).
	Seed uint64
	// Scenario is the workload every device runs (default "gaming").
	Scenario string
	// Epsilon is the per-session exploration rate — non-zero makes
	// decisions stateful, so any handoff bug diverges the sequence.
	Epsilon float64
	// RewardEvery posts a reward every that many periods (default 25;
	// negative disables).
	RewardEvery int
	// Shards is the initial shard count (default 2).
	Shards int
	// Rebalance, when true, removes the most-loaded shard once a third of
	// the fleet's decisions are acked and adds a fresh shard at two
	// thirds — one seeded remove and one seeded add per run.
	Rebalance bool
	// Kill makes the remove abrupt: the shard dies first (in-flight calls
	// fail), then leaves the ring. False drains gracefully: the ring drops
	// it before it stops.
	Kill bool
	// Faults is an optional fault schedule injected between devices and
	// the router. Its Seed defaults to Seed.
	Faults chaos.Config
}

// The per-attempt deadline of the devices and of the router's forwards,
// and the devices' total retry window per call.
const (
	rebalanceCallTimeout = 2 * time.Second
	rebalanceRetryBudget = 30 * time.Second
)

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Proto == "" {
		c.Proto = "bin"
	}
	if c.Devices == 0 {
		c.Devices = 12
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
	if c.Shards == 0 {
		c.Shards = 2
	}
	return c
}

// Validate checks the configuration.
func (c RebalanceConfig) Validate() error {
	if c.Proto != "bin" && c.Proto != "json" {
		return fmt.Errorf("shard: unknown rebalance proto %q (want bin or json)", c.Proto)
	}
	if c.Devices < 1 || c.Periods < 1 {
		return fmt.Errorf("shard: rebalance needs at least one device and period, got %d/%d", c.Devices, c.Periods)
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: rebalance needs at least one shard, got %d", c.Shards)
	}
	if c.Rebalance && c.Shards < 2 {
		return fmt.Errorf("shard: rebalancing needs at least two shards, got %d", c.Shards)
	}
	return nil
}

// fleet is the device side of the run.
func (c RebalanceConfig) fleet() serve.FleetConfig {
	return serve.FleetConfig{
		Devices:     c.Devices,
		Periods:     c.Periods,
		Seed:        c.Seed,
		Scenario:    c.Scenario,
		Epsilon:     c.Epsilon,
		RewardEvery: c.RewardEvery,
	}
}

// RebalanceReport is the evidence a run collects; rebalanceVerdict judges
// it.
type RebalanceReport struct {
	Proto     string  `json:"proto"`
	Shards    int     `json:"shards"`
	Devices   int     `json:"devices"`
	Periods   int     `json:"periods"`
	DurationS float64 `json:"duration_s"`
	Decisions uint64  `json:"decisions"` // acked; must equal Devices×Periods

	Dials   uint64 `json:"dials"`
	Retries uint64 `json:"retries"`
	Resumes uint64 `json:"resumes"` // client-side session resumes (handoffs ridden out)

	Moved         uint64 `json:"moved"`          // router sessions invalidated by membership change
	RouterResumes uint64 `json:"router_resumes"` // resumes the router placed
	ForwardErrors uint64 `json:"forward_errors"`

	Removed string `json:"removed,omitempty"` // victim shard of the rebalance
	Added   string `json:"added,omitempty"`   // shard joined mid-run

	Mismatches int `json:"mismatches"`

	serve.Hygiene
}

// RunRebalance executes one sharded differential run against model.
func RunRebalance(ctx context.Context, model *serve.Model, cfg RebalanceConfig) (*RebalanceReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := workload.ByName(cfg.Scenario); err != nil {
		return nil, err
	}

	rep := &RebalanceReport{Proto: cfg.Proto, Shards: cfg.Shards, Devices: cfg.Devices, Periods: cfg.Periods}
	rep.Hygiene.Start()
	start := time.Now()

	// The fleet: N checkpoint-hydrated replicas.
	fleet, err := NewFleet(model, cfg.Shards, serve.Config{})
	if err != nil {
		return rep, err
	}
	defer fleet.Close()

	// The router, fronting the fleet on the device's chosen protocol.
	router, err := NewRouter(RouterConfig{
		RingSeed:    cfg.Seed,
		CallTimeout: rebalanceCallTimeout,
	}, fleet.Specs())
	if err != nil {
		return rep, err
	}
	defer router.Close()

	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	frontAddr := frontLn.Addr().String()
	frontDone := make(chan error, 1)
	var hs *http.Server
	if cfg.Proto == "bin" {
		go func() { frontDone <- router.ServeBin(frontLn) }()
	} else {
		hs = &http.Server{Handler: router.Handler()}
		go func() { frontDone <- hs.Serve(frontLn) }()
	}
	defer func() {
		if hs != nil {
			hs.Close()
		}
		frontLn.Close()
		<-frontDone
	}()

	// Optional fault proxy between devices and the router.
	deviceAddr := frontAddr
	var proxy *chaos.Proxy
	if cfg.Faults != (chaos.Config{}) {
		faults := cfg.Faults
		if faults.Seed == 0 {
			faults.Seed = cfg.Seed
		}
		proxy, err = chaos.NewProxy(frontAddr, faults)
		if err != nil {
			return rep, err
		}
		defer proxy.Close()
		deviceAddr = proxy.Addr()
	}

	// Clients.
	var bc *serve.BinClient
	var hc *serve.Client
	var open func(context.Context, serve.SessionOptions) (*serve.RemoteSession, error)
	if cfg.Proto == "bin" {
		bc = serve.NewBinClient(deviceAddr)
		bc.SetCallTimeout(rebalanceCallTimeout)
		bc.SetRetryBudget(rebalanceRetryBudget)
		defer bc.Close()
		open = bc.OpenSession
	} else {
		hc = serve.NewClient("http://" + deviceAddr)
		hc.SetCallTimeout(rebalanceCallTimeout)
		hc.SetRetryBudget(rebalanceRetryBudget)
		defer hc.CloseIdleConnections()
		open = hc.CreateSession
	}

	total := uint64(cfg.Devices) * uint64(cfg.Periods)
	gate1At, gate2At := total/3, 2*total/3
	var acked atomic.Uint64

	// Rebalance controller: remove the most-loaded shard at a third of the
	// run, add a fresh shard at two thirds. Devices that crossed a
	// threshold hold before their next decide until the membership change
	// lands, so both changes are guaranteed to happen mid-stream with
	// sessions live on the moving keyspace.
	gate1, gate2 := make(chan struct{}), make(chan struct{})
	ctrlDone := make(chan error, 1)
	if !cfg.Rebalance {
		close(gate1)
		close(gate2)
		ctrlDone <- nil
	} else {
		go func() {
			fail := func(err error) {
				close(gate1)
				close(gate2)
				ctrlDone <- err
			}
			waitFor := func(n uint64) error {
				guard := time.Now().Add(60 * time.Second)
				for acked.Load() < n {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					if time.Now().After(guard) {
						return fmt.Errorf("shard: fleet stalled before rebalance point (%d/%d acked)", acked.Load(), n)
					}
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			}
			if err := waitFor(gate1At); err != nil {
				fail(err)
				return
			}
			// Victim: most live sessions, name-ordered tie-break — fully
			// deterministic for a given seed and schedule.
			loads := router.shardLoads()
			names := make([]string, 0, len(loads))
			for n := range loads {
				names = append(names, n)
			}
			sort.Strings(names)
			victim := names[0]
			for _, n := range names {
				if loads[n] > loads[victim] {
					victim = n
				}
			}
			rep.Removed = victim
			if cfg.Kill {
				// Abrupt: the shard dies with sessions live, then leaves the
				// ring. Devices see forward failures until the remove lands.
				if err := fleet.KillShard(victim); err != nil {
					fail(err)
					return
				}
				if err := router.RemoveShard(victim); err != nil {
					fail(err)
					return
				}
			} else {
				// Graceful: leave the ring first (handoff signals fire, no
				// new forwards), then stop the drained shard.
				if err := router.RemoveShard(victim); err != nil {
					fail(err)
					return
				}
				if err := fleet.StopShard(victim); err != nil {
					fail(err)
					return
				}
			}
			close(gate1)
			if err := waitFor(gate2At); err != nil {
				close(gate2)
				ctrlDone <- err
				return
			}
			spec, err := fleet.AddShard()
			if err != nil {
				close(gate2)
				ctrlDone <- err
				return
			}
			if err := router.AddShard(spec); err != nil {
				close(gate2)
				ctrlDone <- err
				return
			}
			rep.Added = spec.Name
			close(gate2)
			ctrlDone <- nil
		}()
	}

	// The gates count their own acks: a device adds exactly one per acked
	// decide, so the count only grows and each threshold is always
	// reached.
	afterAck := func() error {
		a := acked.Add(1)
		if a >= gate1At {
			select {
			case <-gate1:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if a >= gate2At {
			select {
			case <-gate2:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	devices := cfg.fleet()
	run := serve.RunFleet(ctx, devices, open, afterAck)
	ctrlErr := <-ctrlDone

	rep.Decisions = run.Decisions
	rep.DurationS = time.Since(start).Seconds()
	rep.Moved = router.movedSessions.Load()
	rep.RouterResumes = router.resumesFwd.Load()
	rep.ForwardErrors = router.forwardErrors.Load()
	if bc != nil {
		st := bc.TransportStats()
		rep.Dials, rep.Retries, rep.Resumes = st.Dials, st.Retries, st.Resumes
	}
	if hc != nil {
		st := hc.TransportStats()
		rep.Retries, rep.Resumes = st.Retries, st.Resumes
	}

	// Fault-free single-process oracle over the same model: the sharded
	// fleet must be byte-identical, device for device.
	if rep.Mismatches, err = devices.OracleMismatches(model, run); err != nil {
		return rep, err
	}

	// Teardown before hygiene so the front/router/fleet goroutines count
	// against the baseline.
	if proxy != nil {
		proxy.Close()
	}
	if bc != nil {
		bc.Close()
	}
	if hc != nil {
		hc.CloseIdleConnections()
	}
	if hs != nil {
		hs.Close()
		hs = nil
	}
	frontLn.Close()
	router.Close()
	fleet.Close()

	rep.Hygiene.End()
	return rep, rebalanceVerdict(cfg, run, rep, ctrlErr)
}

// rebalanceVerdict judges a rebalance run's evidence and reports every
// violated invariant: the fleet invariants, a failed membership change,
// and a rebalance that moved no session.
func rebalanceVerdict(cfg RebalanceConfig, run *serve.FleetRun, rep *RebalanceReport, ctrlErr error) error {
	var errs []error
	if ctrlErr != nil {
		errs = append(errs, fmt.Errorf("shard: rebalance controller: %w", ctrlErr))
	}
	errs = append(errs, serve.FleetVerdict(cfg.fleet(), run, rep.Mismatches, rep.Hygiene))
	if cfg.Rebalance && rep.Moved == 0 {
		errs = append(errs, errors.New("shard: rebalance moved no sessions — the handoff path was not exercised"))
	}
	return errors.Join(errs...)
}
