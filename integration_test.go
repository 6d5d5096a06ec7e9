package rlpm_test

// End-to-end integration tests: cross-package invariants that must hold
// for the evaluation to be meaningful. These complement the per-package
// unit tests by exercising the full chip → workload → governor loop.

import (
	"math"
	"testing"

	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/governor"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func newChip(t *testing.T) *soc.Chip {
	t.Helper()
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func newScenario(t *testing.T, name string, clusters int, seed uint64) workload.Scenario {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := workload.New(spec, clusters, seed)
	if err != nil {
		t.Fatal(err)
	}
	return scen
}

// TestEveryGovernorOnEveryScenario is the smoke matrix: all 8 governors ×
// all 7 scenarios × both chips complete without error and produce sane
// summaries.
func TestEveryGovernorOnEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	cfg := sim.Config{PeriodS: 0.05, DurationS: 10, Seed: 1}
	govNames := append(governor.BaselineNames(), "schedutil")
	for _, chipSpec := range []struct {
		name     string
		spec     soc.ChipSpec
		clusters int
	}{
		{"bigLITTLE", soc.DefaultChipSpec(), 2},
		{"symmetric", soc.SymmetricChipSpec(), 1},
		{"gpu3", soc.GPUChipSpec(), 3},
	} {
		for _, scName := range workload.Names() {
			for _, gName := range govNames {
				chip, err := soc.NewChip(chipSpec.spec)
				if err != nil {
					t.Fatal(err)
				}
				g, err := governor.New(gName)
				if err != nil {
					t.Fatal(err)
				}
				scen := newScenario(t, scName, chipSpec.clusters, 1)
				res, err := sim.Run(chip, scen, g, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", chipSpec.name, scName, gName, err)
				}
				q := res.QoS
				if q.Periods != 200 {
					t.Fatalf("%s/%s/%s: %d periods", chipSpec.name, scName, gName, q.Periods)
				}
				if q.TotalEnergyJ <= 0 || math.IsNaN(q.TotalEnergyJ) {
					t.Fatalf("%s/%s/%s: energy %v", chipSpec.name, scName, gName, q.TotalEnergyJ)
				}
				if q.MeanQoS < 0 || q.MeanQoS > 1 {
					t.Fatalf("%s/%s/%s: meanQoS %v", chipSpec.name, scName, gName, q.MeanQoS)
				}
			}
		}
	}
}

// TestGovernorEnergyOrdering: every governor's total energy stays at or
// below the performance governor's, for every scenario. (Powersave is NOT
// a lower bound in this model: a saturated cluster wastes energy on work
// that misses its deadline and is dropped.)
func TestGovernorEnergyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	cfg := sim.Config{PeriodS: 0.05, DurationS: 20, Seed: 3}
	for _, scName := range workload.Names() {
		energies := map[string]float64{}
		for _, gName := range governor.BaselineNames() {
			g, _ := governor.New(gName)
			res, err := sim.Run(newChip(t), newScenario(t, scName, 2, 3), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			energies[gName] = res.QoS.TotalEnergyJ
		}
		for gName, e := range energies {
			if e > energies["performance"]+1e-9 {
				t.Errorf("%s: %s energy %v above performance %v", scName, gName, e, energies["performance"])
			}
		}
	}
}

// TestFullRunDeterminism: a complete RL train+eval cycle twice gives
// bit-identical results — the property EXPERIMENTS.md relies on.
func TestFullRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	run := func() float64 {
		chip := newChip(t)
		scen := newScenario(t, "camera", 2, 5)
		cfg := sim.Config{PeriodS: 0.05, DurationS: 20, Seed: 5}
		p := core.MustPolicy(core.DefaultConfig())
		if _, err := core.Train(chip, scen, p, cfg, 5); err != nil {
			t.Fatal(err)
		}
		p.SetLearning(false)
		res, err := sim.Run(chip, scen, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QoS.EnergyPerQoS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("full pipeline not deterministic: %v vs %v", a, b)
	}
}

// TestHWPolicyAgreesWithSWInClosedLoop: the deployed accelerator must
// track the software policy through the full loop, not just in unit tests.
func TestHWPolicyAgreesWithSWInClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	chip := newChip(t)
	scen := newScenario(t, "mixed", 2, 7)
	cfg := sim.Config{PeriodS: 0.05, DurationS: 30, Seed: 7}
	coreCfg := core.DefaultConfig()
	p := core.MustPolicy(coreCfg)
	if _, err := core.Train(chip, scen, p, cfg, 15); err != nil {
		t.Fatal(err)
	}
	p.SetLearning(false)
	sw, err := sim.Run(chip, scen, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := hwpolicy.FromPolicy(p, coreCfg, bus.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	hwRes, err := sim.Run(chip, scen, hw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(hwRes.QoS.EnergyPerQoS-sw.QoS.EnergyPerQoS) / sw.QoS.EnergyPerQoS
	if rel > 0.05 {
		t.Fatalf("closed-loop HW deviates %.1f%% from SW", rel*100)
	}
}

// TestRLPolicyNeverCatastrophicallyWorse: on every scenario the trained
// policy's energy-per-QoS stays within 15% of the best QoS-preserving
// baseline governor and its violation rate below 12% — the "no scenario
// regresses" guard behind Table 1.
func TestRLPolicyNeverCatastrophicallyWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("long training matrix")
	}
	// The Table-1 protocol: 120 s evaluations, 120 training episodes.
	cfg := sim.Config{PeriodS: 0.05, DurationS: 120, Seed: 1}
	for _, scName := range workload.Names() {
		best := math.Inf(1)
		for _, gName := range governor.BaselineNames() {
			g, _ := governor.New(gName)
			res, err := sim.Run(newChip(t), newScenario(t, scName, 2, 1), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Only QoS-preserving baselines set the bar.
			if res.QoS.ViolationRate < 0.10 && res.QoS.EnergyPerQoS < best {
				best = res.QoS.EnergyPerQoS
			}
		}
		chip := newChip(t)
		scen := newScenario(t, scName, 2, 1)
		trainCfg := cfg
		trainCfg.DurationS = 120
		p := core.MustPolicy(core.DefaultConfig())
		if _, err := core.Train(chip, scen, p, trainCfg, 120); err != nil {
			t.Fatal(err)
		}
		p.SetLearning(false)
		res, err := sim.Run(chip, scen, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.QoS.EnergyPerQoS > best*1.15 {
			t.Errorf("%s: RL E/QoS %.4f more than 15%% above best QoS-preserving baseline %.4f",
				scName, res.QoS.EnergyPerQoS, best)
		}
		if res.QoS.ViolationRate > 0.12 {
			t.Errorf("%s: RL violation rate %.3f above 12%%", scName, res.QoS.ViolationRate)
		}
	}
}
