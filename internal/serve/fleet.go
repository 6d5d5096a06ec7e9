// Fleet driver: the one device fleet every remote harness runs. RunFleet
// gives each simulated device its own session and its own RunDeviceSim
// life (open, decide every period, reward on cadence, close), so the chaos
// harness, the sharded rebalance harness and pmload's remote smoke differ
// only in the endpoint the sessions open against. The same config replays
// each device against a fault-free in-process oracle (OracleMismatches),
// Hygiene records goroutines and heap around the run, and FleetVerdict
// judges the invariants every harness holds a run to.
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

// sim is device idx's simulation config.
func (c FleetConfig) sim(idx int) DeviceSimConfig {
	return DeviceSimConfig{
		Scenario:    c.Scenario,
		Periods:     c.Periods,
		Seed:        DeviceSeed(c.Seed, idx),
		RewardEvery: c.RewardEvery,
	}
}

// FleetRun is the evidence a fleet run leaves.
type FleetRun struct {
	Traces    [][]int // each device's decision sequence
	Errs      []error // each device's failure; nil when it completed
	Decisions uint64  // acked decides
	Rewards   uint64  // acked rewards
}

// RunFleet runs cfg.Devices devices concurrently, each over a session from
// open, and waits for all of them. afterAck (may be nil) runs on the
// device's goroutine after every acked decide, before the device applies
// the levels; a harness gate that holds devices at a threshold counts acks
// itself and blocks there. An afterAck error fails the device.
func RunFleet(ctx context.Context, cfg FleetConfig, open func(context.Context, SessionOptions) (*RemoteSession, error), afterAck func() error) *FleetRun {
	run := &FleetRun{Traces: make([][]int, cfg.Devices), Errs: make([]error, cfg.Devices)}
	var decisions, rewards atomic.Uint64
	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sim := cfg.sim(idx)
			sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: sim.Seed})
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(_ int, obs []Observation) ([]int, error) {
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
			run.Traces[idx], err = RunDeviceSim(sim, decide, reward)
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

// OracleMismatches replays every device of run that completed against a
// fault-free in-process server over model, and counts the devices whose
// trace differs. Faults, retries, restarts and handoffs may cost time,
// never a decision.
func (c FleetConfig) OracleMismatches(model *Model, run *FleetRun) (int, error) {
	oracle, err := New(model, nil, Config{})
	if err != nil {
		return 0, err
	}
	defer oracle.Close()
	mismatches := 0
	for idx, got := range run.Traces {
		if run.Errs[idx] != nil {
			continue
		}
		sim := c.sim(idx)
		sess, err := oracle.CreateSession(SessionOptions{Epsilon: c.Epsilon, Seed: sim.Seed})
		if err != nil {
			return mismatches, err
		}
		want, err := RunDeviceSim(sim, func(_ int, obs []Observation) ([]int, error) {
			return sess.Decide(obs)
		}, nil)
		if err != nil {
			return mismatches, fmt.Errorf("oracle device %d: %w", idx, err)
		}
		if !slices.Equal(got, want) {
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
