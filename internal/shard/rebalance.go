// Rebalance harness: the executable proof of the sharded tier's handoff
// story. RunRebalance drives a fleet of simulated devices through the
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
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
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
	// SessionTTL passes through to every shard's config.
	SessionTTL time.Duration
	// CallTimeout is the device per-attempt deadline (default 2s);
	// RetryBudget the total retry window per call (default 30s).
	CallTimeout time.Duration
	RetryBudget time.Duration
}

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
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 30 * time.Second
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

// RebalanceReport is the evidence a run collects.
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

	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapAllocStart  uint64 `json:"heap_alloc_start"`
	HeapAllocEnd    uint64 `json:"heap_alloc_end"`
}

// devSession is the device-facing session face both transports share.
type devSession interface {
	Decide(ctx context.Context, obs []serve.Observation) ([]int, error)
	Reward(ctx context.Context, r float64) (serve.SessionStats, error)
	Close(ctx context.Context) (serve.SessionStats, error)
}

// rebalancePeriodS matches the chaos harness's simulated control period.
const rebalancePeriodS = 0.05

// RunRebalance executes one sharded differential run against model.
func RunRebalance(ctx context.Context, model *serve.Model, cfg RebalanceConfig) (*RebalanceReport, error) {
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
	rep := &RebalanceReport{
		Proto: cfg.Proto, Shards: cfg.Shards, Devices: cfg.Devices, Periods: cfg.Periods,
		GoroutinesStart: runtime.NumGoroutine(), HeapAllocStart: ms.HeapAlloc,
	}
	start := time.Now()

	// The fleet: N checkpoint-hydrated replicas.
	fleet, err := NewFleet(model, cfg.Shards, serve.Config{SessionTTL: cfg.SessionTTL})
	if err != nil {
		return rep, err
	}
	defer fleet.Close()

	// The router, fronting the fleet on the device's chosen protocol.
	router, err := NewRouter(RouterConfig{
		RingSeed:    cfg.Seed,
		CallTimeout: cfg.CallTimeout,
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
	var open func(context.Context, serve.SessionOptions) (devSession, error)
	if cfg.Proto == "bin" {
		bc = serve.NewBinClient(deviceAddr)
		bc.SetCallTimeout(cfg.CallTimeout)
		bc.SetRetryBudget(cfg.RetryBudget)
		defer bc.Close()
		open = func(ctx context.Context, o serve.SessionOptions) (devSession, error) { return bc.OpenSession(ctx, o) }
	} else {
		hc = serve.NewClient("http://" + deviceAddr)
		hc.SetCallTimeout(cfg.CallTimeout)
		hc.SetRetryBudget(cfg.RetryBudget)
		defer hc.CloseIdleConnections()
		open = func(ctx context.Context, o serve.SessionOptions) (devSession, error) { return hc.CreateSession(ctx, o) }
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

	// The device fleet.
	sequences := make([][]int, cfg.Devices)
	devErrs := make([]error, cfg.Devices)
	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			seed := serve.DeviceSeed(cfg.Seed, idx)
			sess, err := open(ctx, serve.SessionOptions{Epsilon: cfg.Epsilon, Seed: seed})
			if err != nil {
				devErrs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(_ int, obs []serve.Observation) ([]int, error) {
				lv, err := sess.Decide(ctx, obs)
				if err == nil {
					a := acked.Add(1)
					if a >= gate1At {
						select {
						case <-gate1:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
					if a >= gate2At {
						select {
						case <-gate2:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
				}
				return lv, err
			}
			reward := func(r float64) error {
				_, err := sess.Reward(ctx, r)
				return err
			}
			sequences[idx], err = serve.RunDeviceSim(serve.DeviceSimConfig{
				Scenario:    cfg.Scenario,
				Periods:     cfg.Periods,
				Seed:        seed,
				PeriodS:     rebalancePeriodS,
				RewardEvery: cfg.RewardEvery,
			}, decide, reward)
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
	ctrlErr := <-ctrlDone

	rep.Decisions = acked.Load()
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
	if err := func() error {
		oracle, err := serve.New(model, nil, serve.Config{})
		if err != nil {
			return err
		}
		defer oracle.Close()
		for idx := 0; idx < cfg.Devices; idx++ {
			if devErrs[idx] != nil {
				continue
			}
			seed := serve.DeviceSeed(cfg.Seed, idx)
			sess, err := oracle.CreateSession(serve.SessionOptions{Epsilon: cfg.Epsilon, Seed: seed})
			if err != nil {
				return err
			}
			want, err := serve.RunDeviceSim(serve.DeviceSimConfig{
				Scenario:    cfg.Scenario,
				Periods:     cfg.Periods,
				Seed:        seed,
				PeriodS:     rebalancePeriodS,
				RewardEvery: cfg.RewardEvery,
			}, func(_ int, obs []serve.Observation) ([]int, error) {
				return sess.Decide(obs)
			}, nil)
			if err != nil {
				return fmt.Errorf("oracle device %d: %w", idx, err)
			}
			if !equalSeq(sequences[idx], want) {
				rep.Mismatches++
			}
		}
		return nil
	}(); err != nil {
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

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > rep.GoroutinesStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.GoroutinesEnd = runtime.NumGoroutine()
	rep.HeapAllocEnd = ms.HeapAlloc

	switch {
	case ctrlErr != nil:
		return rep, fmt.Errorf("shard: rebalance controller: %w", ctrlErr)
	case firstDevErr(devErrs) != nil:
		return rep, fmt.Errorf("shard: device failed: %w", firstDevErr(devErrs))
	case rep.Decisions != total:
		return rep, fmt.Errorf("shard: acked %d decisions, want %d (lost or duplicated)", rep.Decisions, total)
	case rep.Mismatches > 0:
		return rep, fmt.Errorf("shard: %d device(s) diverged from the single-process oracle", rep.Mismatches)
	case cfg.Rebalance && rep.Moved == 0:
		return rep, fmt.Errorf("shard: rebalance moved no sessions — the handoff path was not exercised")
	case rep.GoroutinesEnd > rep.GoroutinesStart:
		return rep, fmt.Errorf("shard: leaked goroutines: %d before, %d after", rep.GoroutinesStart, rep.GoroutinesEnd)
	case rep.HeapAllocEnd > rep.HeapAllocStart+256<<20:
		return rep, fmt.Errorf("shard: heap grew %d bytes", rep.HeapAllocEnd-rep.HeapAllocStart)
	}
	return rep, nil
}

func equalSeq(a, b []int) bool {
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

func firstDevErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
