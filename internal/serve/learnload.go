// Training-while-serving harness: a fleet of simulated devices split into
// a learning arm and a frozen control arm, driven round-robin against one
// in-process learning server. Everything that moves — device workload
// streams, session exploration — is seeded (so is a Double-Q model's coin,
// by its config's Seed), and the server applies each reward's updates
// before it acks the reward, on the one goroutine that drives the fleet,
// so two runs with the same config produce identical decision traces and
// bit-identical learned tables. That reproducibility is what makes the
// frozen-vs-learning A/B numbers trustworthy: the control arm differs from
// the treatment arm in policy only.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"rlpm/internal/core"
)

// LearnLoadConfig parameterizes one seeded training-while-serving run.
type LearnLoadConfig struct {
	// FleetConfig is the device fleet (defaults: FleetConfig.WithDefaults).
	// Even device indices join the learning arm, odd indices the frozen
	// control arm, so the two arms interleave across the seed-derived
	// per-device workload streams. Epsilon applies to both arms, for
	// parity: exploration is what feeds the learner off-greedy samples.
	FleetConfig
	// SwapEvery passes through to LearnConfig (default 1: a short run
	// applies fewer updates than the server's default of 256, and its
	// learning arm would decide from the construction model throughout).
	SwapEvery int
}

func (c LearnLoadConfig) withDefaults() LearnLoadConfig {
	c.FleetConfig = c.FleetConfig.WithDefaults()
	if c.SwapEvery == 0 {
		c.SwapEvery = 1
	}
	return c
}

// LearnArm aggregates one cohort's outcomes.
type LearnArm struct {
	Devices    int     `json:"devices"`
	Rewards    uint64  `json:"rewards"`
	MeanReward float64 `json:"mean_reward"`
	EnergyJ    float64 `json:"energy_j"` // total simulated energy across the arm's devices
	MeanQoS    float64 `json:"mean_qos"` // mean of the devices' mean service ratio
}

// LearnReport is the harness outcome: learner counters, per-arm A/B
// aggregates, per-device decision traces, and the final learned tables
// encoded as checkpoint bytes — the determinism witness two seeded runs
// are compared on.
type LearnReport struct {
	Devices    int      `json:"devices"`
	Periods    int      `json:"periods"`
	Updates    uint64   `json:"updates"`
	Rejected   uint64   `json:"rejected"`
	Swaps      uint64   `json:"swaps"`
	Learning   LearnArm `json:"learning"`
	Frozen     LearnArm `json:"frozen"`
	Traces     [][]int  `json:"-"`
	Checkpoint []byte   `json:"-"`
}

// RunLearn runs the seeded training-while-serving fleet against model.
func RunLearn(model *Model, cfg LearnLoadConfig) (*LearnReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	srv, err := New(model, nil, Config{
		Learn: LearnConfig{Enabled: true, SwapEvery: cfg.SwapEvery},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	devs := make([]*fleetDevice, cfg.Devices)
	sessions := make([]*Session, cfg.Devices)
	rewardSeqs := make([]uint64, cfg.Devices)
	for i := range devs {
		devs[i], err = newFleetDevice(cfg.Scenario, DeviceSeed(cfg.Seed, i), cfg.RewardEvery)
		if err != nil {
			return nil, err
		}
		cohort := CohortLearning
		if i%2 == 1 {
			cohort = CohortFrozen
		}
		sessions[i], err = srv.CreateSession(SessionOptions{
			Epsilon: cfg.Epsilon,
			Seed:    DeviceSeed(cfg.Seed, i),
			Cohort:  cohort,
		})
		if err != nil {
			return nil, err
		}
	}

	// One round = one control period across the fleet, device order fixed.
	// The single-goroutine interleave, with each reward learned before it
	// is acked, makes the model version every decide reads a pure function
	// of the config.
	for p := 0; p < cfg.Periods; p++ {
		for i, d := range devs {
			r, due, err := d.step(sessions[i].Decide)
			if err != nil {
				return nil, fmt.Errorf("device %d period %d: %w", i, p, err)
			}
			if due {
				rewardSeqs[i]++
				if _, err := sessions[i].RewardSeq(rewardSeqs[i], r); err != nil {
					return nil, fmt.Errorf("device %d reward at period %d: %w", i, p, err)
				}
			}
		}
	}

	rep := &LearnReport{
		Devices: cfg.Devices, Periods: cfg.Periods,
		Traces: make([][]int, cfg.Devices),
	}
	for i, d := range devs {
		rep.Traces[i] = d.trace
		arm := &rep.Learning
		if i%2 == 1 {
			arm = &rep.Frozen
		}
		sum := d.sim.Summary()
		arm.Devices++
		arm.EnergyJ += sum.TotalEnergyJ
		arm.MeanQoS += sum.MeanService
	}
	for _, arm := range []*LearnArm{&rep.Learning, &rep.Frozen} {
		if arm.Devices > 0 {
			arm.MeanQoS /= float64(arm.Devices)
		}
	}

	met := srv.Registry().Snapshot()
	learning, frozen := `cohort="`+CohortLearning+`"`, `cohort="`+CohortFrozen+`"`
	rep.Updates = uint64(met.Value("learn_updates_total", ""))
	rep.Rejected = uint64(met.Value("learn_rejected_total", ""))
	rep.Swaps = uint64(met.Value("learn_swaps_total", ""))
	rep.Learning.Rewards = uint64(met.Value("serve_cohort_rewards_total", learning))
	rep.Learning.MeanReward = met.Value("serve_cohort_mean_reward", learning)
	rep.Frozen.Rewards = uint64(met.Value("serve_cohort_rewards_total", frozen))
	rep.Frozen.MeanReward = met.Value("serve_cohort_mean_reward", frozen)

	learned := model.flat.NewLike()
	srv.learner.tablesInto(learned)
	var buf bytes.Buffer
	if err := core.WriteCheckpoint(&buf, model.cfg.State, learned); err != nil {
		return nil, err
	}
	rep.Checkpoint = buf.Bytes()
	return rep, nil
}

// RunLearnReplay runs the learn harness twice with the same config and
// judges the pair (learnVerdict). It returns the first run's report, and
// an error joining every violated invariant.
func RunLearnReplay(model *Model, cfg LearnLoadConfig) (*LearnReport, error) {
	a, err := RunLearn(model, cfg)
	if err != nil {
		return nil, err
	}
	b, err := RunLearn(model, cfg)
	if err != nil {
		return a, fmt.Errorf("serve: learn replay run: %w", err)
	}
	return a, learnVerdict(model.Config(), a, b)
}

// learnVerdict judges two same-config learn runs and reports every
// violated invariant: the learner applied updates and published them, no
// sample was rejected, the replay reproduced every device's decisions and
// the learned checkpoint byte for byte, and that checkpoint loads into a
// serving model the way LoadModel loads a file (ReadModel).
func learnVerdict(cfg core.Config, a, b *LearnReport) error {
	var errs []error
	if a.Updates == 0 {
		errs = append(errs, errors.New("serve: learn applied no Q-updates"))
	}
	if a.Swaps == 0 {
		errs = append(errs, errors.New("serve: learn published no tables; the learning arm decided from the construction model"))
	}
	if a.Rejected > 0 {
		errs = append(errs, fmt.Errorf("serve: learn rejected %d samples", a.Rejected))
	}
	for i := range a.Traces {
		if i >= len(b.Traces) || !slices.Equal(a.Traces[i], b.Traces[i]) {
			errs = append(errs, fmt.Errorf("serve: learn replay diverged on device %d's decisions", i))
			break
		}
	}
	if !bytes.Equal(a.Checkpoint, b.Checkpoint) {
		errs = append(errs, errors.New("serve: learn replay produced different learned tables"))
	}
	if _, err := ReadModel(bytes.NewReader(a.Checkpoint), int64(len(a.Checkpoint)), cfg); err != nil {
		errs = append(errs, fmt.Errorf("serve: learned checkpoint does not reload: %w", err))
	}
	return errors.Join(errs...)
}
