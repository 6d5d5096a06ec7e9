// Shared device simulator: one definition of what a simulated device *is*
// — chip model, workload stream, observation assembly, reward cadence —
// used by the fleet driver (RunFleet), the learn harness, and every
// differential oracle. Splitting this out is what makes
// "byte-identical to the oracle" a meaningful claim: the endpoint under
// test (json, bin, router, N shards) is the only variable; the device side
// is literally the same code and the same RNG stream.
package serve

import (
	"fmt"

	"rlpm/internal/qos"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

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

// DeviceSimConfig parameterizes one simulated device's life.
type DeviceSimConfig struct {
	// Scenario is the workload name (workload.ByName).
	Scenario string
	// Periods is the decide count — the sim is work-based, so harness
	// completeness invariants are exact.
	Periods int
	// Seed is the device's stream seed (DeviceSeed(base, idx)).
	Seed uint64
	// RewardEvery posts a device-computed reward every that many periods
	// (0 or negative disables).
	RewardEvery int
}

// devicePeriodS is every simulated device's control period in seconds.
const devicePeriodS = 0.05

// DeviceStepper is RunDeviceSim unrolled: the same chip, workload stream,
// and observation assembly, advanced one control period at a time so a
// harness can interleave many devices deterministically (the learning
// harness round-robins a cohort and ticks the learner between rounds).
type DeviceStepper struct {
	cfg     DeviceSimConfig
	chip    *soc.Chip
	scen    workload.Scenario
	obs     []Observation
	trace   []int
	chipRes soc.ChipStep
	period  int
	energyJ float64
	qosSum  float64
}

// NewDeviceStepper builds one device's simulation in its pre-first-decide
// state (idle observations, QoS 1).
func NewDeviceStepper(cfg DeviceSimConfig) (*DeviceStepper, error) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	scen, err := workload.New(spec, chip.NumClusters(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	chip.Reset()
	scen.Reset(cfg.Seed)
	d := &DeviceStepper{cfg: cfg, chip: chip, scen: scen}
	n := chip.NumClusters()
	d.obs = make([]Observation, n)
	for i := range d.obs {
		d.obs[i] = Observation{QoS: 1, ClusterQoS: 1, Level: chip.Cluster(i).Level()}
	}
	d.trace = make([]int, 0, cfg.Periods*n)
	return d, nil
}

// Clusters reports the chip's cluster count.
func (d *DeviceStepper) Clusters() int { return d.chip.NumClusters() }

// Done reports whether every configured period has been applied.
func (d *DeviceStepper) Done() bool { return d.period >= d.cfg.Periods }

// Period is the index of the next period to decide.
func (d *DeviceStepper) Period() int { return d.period }

// Obs is the current period's observations — the decide input. The slice
// is reused across periods.
func (d *DeviceStepper) Obs() []Observation { return d.obs }

// Trace is the flat decision sequence recorded so far, for oracle diffs.
func (d *DeviceStepper) Trace() []int { return d.trace }

// EnergyJ is the total simulated energy consumed so far.
func (d *DeviceStepper) EnergyJ() float64 { return d.energyJ }

// MeanQoS is the mean per-period QoS over the applied periods (1 before
// any period has run).
func (d *DeviceStepper) MeanQoS() float64 {
	if d.period == 0 {
		return 1
	}
	return d.qosSum / float64(d.period)
}

// Apply commits one period's decision: sets the levels, steps the chip
// through the next workload slice, and reassembles observations. It
// returns the device-computed reward (-energy for the period) and whether
// the RewardEvery cadence says this period's reward is due for reporting.
func (d *DeviceStepper) Apply(levels []int) (reward float64, due bool, err error) {
	n := d.chip.NumClusters()
	if len(levels) != n {
		return 0, false, fmt.Errorf("serve: %d levels for %d clusters", len(levels), n)
	}
	d.trace = append(d.trace, levels...)
	for i, lvl := range levels {
		d.chip.Cluster(i).SetLevel(lvl)
	}
	w := d.scen.Next(devicePeriodS)
	if err := d.chip.StepInto(&d.chipRes, w.Demands, devicePeriodS); err != nil {
		return 0, false, err
	}
	var demanded, completed float64
	for i, dm := range w.Demands {
		demanded += dm.Cycles
		completed += d.chipRes.Clusters[i].CompletedCycles
	}
	q := qos.PeriodQoS(demanded, completed)
	for i := range d.obs {
		cr := d.chipRes.Clusters[i]
		dr := 0.0
		if cr.CapacityCycles > 0 {
			dr = w.Demands[i].Cycles / cr.CapacityCycles
		}
		d.obs[i] = Observation{
			Utilization: cr.Utilization,
			DemandRatio: dr,
			QoS:         q,
			ClusterQoS:  qos.PeriodQoS(w.Demands[i].Cycles, cr.CompletedCycles),
			Critical:    w.Critical,
			Level:       d.chip.Cluster(i).Level(),
		}
	}
	d.energyJ += d.chipRes.EnergyJ
	d.qosSum += q
	d.period++
	due = d.cfg.RewardEvery > 0 && d.period%d.cfg.RewardEvery == 0
	return -d.chipRes.EnergyJ, due, nil
}

// RunDeviceSim runs one device's full chip-simulation life: every control
// period's observations go through decide, the returned levels are applied,
// and the recorded decision sequence is returned for oracle diffs. decide
// receives the period index and one period's observations; reward (may be
// nil) receives -energy every RewardEvery periods.
func RunDeviceSim(cfg DeviceSimConfig, decide func(int, []Observation) ([]int, error), reward func(float64) error) ([]int, error) {
	d, err := NewDeviceStepper(cfg)
	if err != nil {
		return nil, err
	}
	for !d.Done() {
		p := d.Period()
		levels, err := decide(p, d.Obs())
		if err != nil {
			return d.Trace(), err
		}
		r, due, err := d.Apply(levels)
		if err != nil {
			return d.Trace(), err
		}
		if reward != nil && due {
			if err := reward(r); err != nil {
				return d.Trace(), fmt.Errorf("reward at period %d: %w", p, err)
			}
		}
	}
	return d.Trace(), nil
}
