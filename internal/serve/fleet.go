// Fleet driver: the one device fleet every remote harness runs. RunFleet
// gives each simulated device its own session and its own life (open,
// decide every period, reward on cadence, close), so the chaos harness,
// the sharded rebalance harness and pmload's remote smoke differ only in
// the endpoint the sessions open against. Every device is a sim.Device —
// the closed loop sim.Run steps — so a served device and an in-process
// simulation of the same seed step through the same code. The same config
// replays each device against a fault-free in-process server (Oracle,
// OracleMismatches), Hygiene records goroutines and heap around the run,
// and FleetVerdict judges the invariants every harness holds a run to.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/qos"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// FleetConfig is the device side of a fleet run.
type FleetConfig struct {
	// Devices is the concurrent device count, one session each.
	Devices int
	// Periods is the decide count per device; the run is work-based, so
	// the completeness invariant is exact.
	Periods int
	// Seed derives every device's stream seed (DeviceSeed).
	Seed uint64
	// Scenario is the workload every device runs.
	Scenario string
	// Epsilon is the per-session exploration rate.
	Epsilon float64
	// RewardEvery posts a reward every that many periods (0 or negative
	// disables).
	RewardEvery int
}

// DeviceSeed derives device idx's stream seed from the fleet base seed.
// The derivation depends on the device id ONLY — not on the endpoint, the
// transport, or how devices are partitioned across shards — so a json
// run, a bin run, and an N-shard run over the same fleet replay the same
// per-device scenario and exploration streams, and one single-process
// oracle diffs against all of them. (The harness differentials and the
// fleet benchmark's replayed devices depend on this exact formula; change
// it and every differential test says so.)
func DeviceSeed(base uint64, device int) uint64 {
	return base + uint64(device)*0x9e3779b9
}

// devicePeriodS is every simulated device's control period in seconds.
const devicePeriodS = 0.05

// fleetDevice is one simulated device as the serving harnesses drive it:
// a sim.Device on the default chip stepping devicePeriodS periods of its
// scenario from its seed, its observations in wire form, and every level
// it was served.
type fleetDevice struct {
	sim         *sim.Device
	obs         []Observation // the next decide's input
	trace       []int         // served levels, period by period
	rewardEvery int
}

// newFleetDevice builds a device at the start of its scenario's stream.
// rewardEvery is its reward cadence in periods (0 or negative: never).
func newFleetDevice(scenario string, seed uint64, rewardEvery int) (*fleetDevice, error) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(scenario)
	if err != nil {
		return nil, err
	}
	scen, err := workload.New(spec, chip.NumClusters(), seed)
	if err != nil {
		return nil, err
	}
	// The harness counts a served device's periods, so the duration is
	// only the one period Config.Validate asks for.
	dev, err := sim.NewDevice(chip, scen, sim.Config{PeriodS: devicePeriodS, DurationS: devicePeriodS, Seed: seed})
	if err != nil {
		return nil, err
	}
	d := &fleetDevice{sim: dev, obs: make([]Observation, chip.NumClusters()), rewardEvery: rewardEvery}
	wireObs(d.obs, dev.Obs())
	return d, nil
}

// step is one period of a device's life: decide serves the levels for the
// current observations, and the device runs the period at them. It
// returns the device's reward for the period (minus its whole-chip
// energy) and whether the reward cadence says to post it.
func (d *fleetDevice) step(decide func([]Observation) ([]int, error)) (reward float64, due bool, err error) {
	levels, err := decide(d.obs)
	if err != nil {
		return 0, false, err
	}
	if err := d.sim.Step(levels); err != nil {
		return 0, false, err
	}
	d.trace = append(d.trace, levels...)
	obs := d.sim.Obs()
	wireObs(d.obs, obs)
	periods := len(d.trace) / len(d.obs)
	return -obs[0].EnergyJ, d.rewardEvery > 0 && periods%d.rewardEvery == 0, nil
}

// life runs device idx of the fleet through c.Periods periods, deciding
// through decide and posting each due reward through reward (nil: none).
// It returns the device, also when a period fails (nil if it could not be
// built).
func (c FleetConfig) life(idx int, decide func([]Observation) ([]int, error), reward func(float64) error) (*fleetDevice, error) {
	d, err := newFleetDevice(c.Scenario, DeviceSeed(c.Seed, idx), c.RewardEvery)
	if err != nil {
		return nil, err
	}
	for p := 0; p < c.Periods; p++ {
		r, due, err := d.step(decide)
		if err != nil {
			return d, err
		}
		if due && reward != nil {
			if err := reward(r); err != nil {
				return d, fmt.Errorf("reward at period %d: %w", p, err)
			}
		}
	}
	return d, nil
}

// FleetRun is the evidence a fleet run leaves.
type FleetRun struct {
	Traces    [][]int       // each device's decision sequence
	QoS       []qos.Summary // each device's QoS and energy digest
	Errs      []error       // each device's failure; nil when it completed
	Decisions uint64        // acked decides
	Rewards   uint64        // acked rewards
}

// newFleetRun is the empty evidence of a fleet of n devices.
func newFleetRun(n int) *FleetRun {
	return &FleetRun{Traces: make([][]int, n), QoS: make([]qos.Summary, n), Errs: make([]error, n)}
}

// record files device idx's trace and digest; d is nil when the device
// could not be built.
func (run *FleetRun) record(idx int, d *fleetDevice) {
	if d != nil {
		run.Traces[idx], run.QoS[idx] = d.trace, d.sim.Summary()
	}
}

// RunFleet runs cfg.Devices devices concurrently, each over a session from
// open, and waits for all of them. afterAck (may be nil) runs on the
// device's goroutine after every acked decide, before the device applies
// the levels; a harness gate that holds devices at a threshold counts acks
// itself and blocks there. An afterAck error fails the device.
func RunFleet(ctx context.Context, cfg FleetConfig, open func(context.Context, SessionOptions) (*RemoteSession, error), afterAck func() error) *FleetRun {
	run := newFleetRun(cfg.Devices)
	var decisions, rewards atomic.Uint64
	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: DeviceSeed(cfg.Seed, idx)})
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(obs []Observation) ([]int, error) {
				lv, err := sess.Decide(ctx, obs)
				if err != nil {
					return nil, err
				}
				decisions.Add(1)
				if afterAck != nil {
					if err := afterAck(); err != nil {
						return nil, err
					}
				}
				return lv, nil
			}
			reward := func(r float64) error {
				if _, err := sess.Reward(ctx, r); err != nil {
					return err
				}
				rewards.Add(1)
				return nil
			}
			dev, err := cfg.life(idx, decide, reward)
			run.record(idx, dev)
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d: %w", idx, err)
				return
			}
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := sess.Close(cctx); err != nil {
				run.Errs[idx] = fmt.Errorf("device %d close: %w", idx, err)
			}
		}(d)
	}
	wg.Wait()
	run.Decisions, run.Rewards = decisions.Load(), rewards.Load()
	return run
}

// Oracle runs every device of c, one after another, against a fault-free
// in-process server over model, through the same device life RunFleet
// gives each device. It posts no rewards, which a frozen policy ignores.
// A fleet served over model by any endpoint must reproduce its traces and
// digests.
func (c FleetConfig) Oracle(model *Model) (*FleetRun, error) {
	srv, err := New(model, nil, Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	run := newFleetRun(c.Devices)
	for idx := 0; idx < c.Devices; idx++ {
		sess, err := srv.CreateSession(SessionOptions{Epsilon: c.Epsilon, Seed: DeviceSeed(c.Seed, idx)})
		if err != nil {
			return nil, err
		}
		dev, err := c.life(idx, sess.Decide, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle device %d: %w", idx, err)
		}
		run.record(idx, dev)
		run.Decisions += uint64(c.Periods)
	}
	return run, nil
}

// OracleMismatches counts the devices of run that completed but whose
// trace differs from c's Oracle over model. Faults, retries, restarts and
// handoffs may cost time, never a decision.
func (c FleetConfig) OracleMismatches(model *Model, run *FleetRun) (int, error) {
	want, err := c.Oracle(model)
	if err != nil {
		return 0, err
	}
	mismatches := 0
	for idx, got := range run.Traces {
		if run.Errs[idx] == nil && !slices.Equal(got, want.Traces[idx]) {
			mismatches++
		}
	}
	return mismatches, nil
}

// Hygiene is a fleet run's resource evidence: goroutines and live heap
// before the run and after its teardown.
type Hygiene struct {
	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapAllocStart  uint64 `json:"heap_alloc_start"`
	HeapAllocEnd    uint64 `json:"heap_alloc_end"`
}

// maxHeapGrowth bounds the live heap a run may leave behind.
const maxHeapGrowth = 256 << 20

// Start records the baseline after a collection.
func (h *Hygiene) Start() {
	h.HeapAllocStart = heapAlloc()
	h.GoroutinesStart = runtime.NumGoroutine()
}

// End gives goroutines up to five seconds to settle back to the baseline,
// then records the end state after a collection.
func (h *Hygiene) End() {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > h.GoroutinesStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	h.HeapAllocEnd = heapAlloc()
	h.GoroutinesEnd = runtime.NumGoroutine()
}

// heapAlloc is the live heap after a full collection.

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// FleetVerdict judges the invariants every fleet harness holds a run to
// and reports each one violated: no device failed, every device acked
// exactly cfg.Periods decisions (none lost, none duplicated), no trace
// diverged from the oracle, no goroutine outlived the run, and the heap
// did not balloon.
func FleetVerdict(cfg FleetConfig, run *FleetRun, mismatches int, h Hygiene) error {
	var errs []error
	for _, err := range run.Errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: %w", err))
		}
	}
	if want := uint64(cfg.Devices) * uint64(cfg.Periods); run.Decisions != want {
		errs = append(errs, fmt.Errorf("fleet: acked %d decisions, want %d (lost or duplicated)", run.Decisions, want))
	}
	if mismatches > 0 {
		errs = append(errs, fmt.Errorf("fleet: %d device(s) diverged from the fault-free oracle", mismatches))
	}
	if h.GoroutinesEnd > h.GoroutinesStart {
		errs = append(errs, fmt.Errorf("fleet: leaked goroutines: %d before, %d after", h.GoroutinesStart, h.GoroutinesEnd))
	}
	if h.HeapAllocEnd > h.HeapAllocStart+maxHeapGrowth {
		errs = append(errs, fmt.Errorf("fleet: heap grew %d bytes", h.HeapAllocEnd-h.HeapAllocStart))
	}
	return errors.Join(errs...)
}
