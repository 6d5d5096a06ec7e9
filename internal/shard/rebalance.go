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
	"sort"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/serve"
	"rlpm/internal/workload"
)

// RebalanceConfig parameterizes a sharded differential run.
type RebalanceConfig struct {
	// FleetConfig is the device fleet (defaults:
	// serve.FleetConfig.WithDefaults). Its Seed also derives the ring and
	// the fault schedule.
	serve.FleetConfig
	// Proto selects the device transport through the router: "bin"
	// (default) or "json".
	Proto string
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

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	c.FleetConfig = c.FleetConfig.WithDefaults()
	if c.Proto == "" {
		c.Proto = "bin"
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	return c
}

// Validate checks the configuration.
func (c RebalanceConfig) Validate() error {
	if err := serve.CheckProto(c.Proto); err != nil {
		return err
	}
	if err := c.FleetConfig.Validate(); err != nil {
		return err
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: rebalance needs at least one shard, got %d", c.Shards)
	}
	if c.Rebalance && c.Shards < 2 {
		return fmt.Errorf("shard: rebalancing needs at least two shards, got %d", c.Shards)
	}
	return nil
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
	run, err := rebalanceRun(ctx, model, cfg, rep)
	if err != nil {
		return rep, err
	}
	// Fault-free single-process oracle over the same model: the sharded
	// fleet must be byte-identical, device for device.
	if rep.Mismatches, err = cfg.OracleMismatches(model, run); err != nil {
		return rep, err
	}
	rep.Hygiene.End()
	return rep, rebalanceVerdict(cfg, run, rep)
}

// rebalanceRun stands up the shards, the router, its front and the
// optional fault proxy, drives the fleet through them, and tears all of
// it down before it returns, so hygiene counts their goroutines against
// the baseline.
func rebalanceRun(ctx context.Context, model *serve.Model, cfg RebalanceConfig, rep *RebalanceReport) (*serve.FleetRun, error) {
	start := time.Now()

	// The fleet: N checkpoint-hydrated replicas.
	fleet, err := NewFleet(model, cfg.Shards, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	// The router, fronting the fleet on the device's chosen protocol.
	router, err := NewRouter(RouterConfig{
		RingSeed:    cfg.Seed,
		CallTimeout: serve.FleetCallTimeout,
	}, fleet.Specs())
	if err != nil {
		return nil, err
	}
	defer router.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	front, err := serve.ServeFront(router, cfg.Proto, ln)
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer front.Close()

	// Optional fault proxy between devices and the router.
	deviceAddr := ln.Addr().String()
	if cfg.Faults != (chaos.Config{}) {
		faults := cfg.Faults
		if faults.Seed == 0 {
			faults.Seed = cfg.Seed
		}
		proxy, err := chaos.NewProxy(deviceAddr, faults)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		deviceAddr = proxy.Addr()
	}

	client, err := serve.NewFleetClient(cfg.Proto, deviceAddr)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	// The membership changes: remove the most-loaded shard at a third of
	// the run, add a fresh shard at two thirds. Each lands while the
	// devices past its threshold hold, so both happen mid-stream with
	// sessions live on the moving keyspace.
	var events []serve.FleetEvent
	if cfg.Rebalance {
		total := uint64(cfg.Devices) * uint64(cfg.Periods)
		events = []serve.FleetEvent{
			{At: total / 3, Do: func() error {
				rep.Removed = router.busiestShard()
				if cfg.Kill {
					// Abrupt: the shard dies with sessions live, then leaves
					// the ring. Devices see forward failures until the
					// remove lands.
					if err := fleet.KillShard(rep.Removed); err != nil {
						return err
					}
					return router.RemoveShard(rep.Removed)
				}
				// Graceful: leave the ring first (handoff signals fire, no
				// new forwards), then stop the drained shard.
				if err := router.RemoveShard(rep.Removed); err != nil {
					return err
				}
				return fleet.StopShard(rep.Removed)
			}},
			{At: 2 * total / 3, Do: func() error {
				spec, err := fleet.AddShard()
				if err != nil {
					return err
				}
				if err := router.AddShard(spec); err != nil {
					return err
				}
				rep.Added = spec.Name
				return nil
			}},
		}
	}
	run := serve.RunFleet(ctx, cfg.FleetConfig, client.Open, events...)

	rep.Decisions = run.Decisions
	rep.DurationS = time.Since(start).Seconds()
	rep.Moved = router.movedSessions.Load()
	rep.RouterResumes = router.resumesFwd.Load()
	rep.ForwardErrors = router.forwardErrors.Load()
	st := client.Stats()
	rep.Dials, rep.Retries, rep.Resumes = st.Dials, st.Retries, st.Resumes
	return run, nil
}

// busiestShard names the shard with the most live routed sessions,
// name-ordered on a tie: the rebalance victim, fully deterministic for a
// given seed and schedule.
func (r *Router) busiestShard() string {
	loads := r.shardLoads()
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
	return victim
}

// rebalanceVerdict judges a rebalance run's evidence and reports every
// violated invariant: the fleet invariants (a failed membership change
// among them) and a rebalance that moved no session.
func rebalanceVerdict(cfg RebalanceConfig, run *serve.FleetRun, rep *RebalanceReport) error {
	errs := []error{serve.FleetVerdict(cfg.FleetConfig, run, rep.Mismatches, rep.Hygiene)}
	if cfg.Rebalance && rep.Moved == 0 {
		errs = append(errs, errors.New("shard: rebalance moved no sessions — the handoff path was not exercised"))
	}
	return errors.Join(errs...)
}
