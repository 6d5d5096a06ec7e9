package hwpolicy

import (
	"math"
	"testing"

	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func simSetup(t *testing.T, scenario string) (*soc.Chip, workload.Scenario) {
	t.Helper()
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName(scenario)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := workload.New(spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return chip, scen
}

func TestNewGovernorValidates(t *testing.T) {
	if _, err := NewGovernor(core.Config{}, bus.DefaultConfig(), 4); err == nil {
		t.Fatal("invalid core config accepted")
	}
	if _, err := NewGovernor(core.DefaultConfig(), bus.Config{}, 4); err == nil {
		t.Fatal("invalid bus config accepted")
	}
	if _, err := NewGovernor(core.DefaultConfig(), bus.DefaultConfig(), 0); err == nil {
		t.Fatal("zero banks accepted")
	}
}

func TestHWGovernorRunsClosedLoop(t *testing.T) {
	chip, scen := simSetup(t, "video")
	g, err := NewGovernor(core.DefaultConfig(), bus.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(chip, scen, g, sim.Config{PeriodS: 0.05, DurationS: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS.Periods != 200 {
		t.Fatalf("periods = %d", res.QoS.Periods)
	}
	decisions, mean, max := g.LatencyStats()
	if decisions != 400 { // 200 periods × 2 clusters
		t.Fatalf("decisions = %d, want 400", decisions)
	}
	if mean <= 0 || max < mean {
		t.Fatalf("latency stats mean=%v max=%v", mean, max)
	}
	// A decision transaction is a few hundred ns — far below a microsecond.
	if mean.Nanoseconds() > 1000 {
		t.Fatalf("mean decision latency %v implausibly high", mean)
	}
}

func TestFromPolicyMatchesSoftwareQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	// Train the software policy, freeze it, and deploy to hardware; the
	// hardware policy (quantized to Q16.16, greedy) must achieve
	// energy-per-QoS within a few percent of the software policy.
	chip, scen := simSetup(t, "video")
	cfg := core.DefaultConfig()
	simCfg := sim.Config{PeriodS: 0.05, DurationS: 60, Seed: 1}
	p := core.MustPolicy(cfg)
	if _, err := core.Train(chip, scen, p, simCfg, 20); err != nil {
		t.Fatal(err)
	}
	p.SetLearning(false)
	swRes, err := sim.Run(chip, scen, p, simCfg)
	if err != nil {
		t.Fatal(err)
	}

	hw, err := FromPolicy(p, cfg, bus.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	hwRes, err := sim.Run(chip, scen, hw, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(hwRes.QoS.EnergyPerQoS-swRes.QoS.EnergyPerQoS) / swRes.QoS.EnergyPerQoS
	if rel > 0.05 {
		t.Fatalf("hardware policy E/QoS %v deviates %.1f%% from software %v",
			hwRes.QoS.EnergyPerQoS, rel*100, swRes.QoS.EnergyPerQoS)
	}
}

func TestFromPolicyRequiresDrivenPolicy(t *testing.T) {
	p := core.MustPolicy(core.DefaultConfig())
	if _, err := FromPolicy(p, core.DefaultConfig(), bus.DefaultConfig(), 4); err == nil {
		t.Fatal("undriven policy accepted")
	}
}

func TestHWGovernorReset(t *testing.T) {
	chip, scen := simSetup(t, "idle")
	g, _ := NewGovernor(core.DefaultConfig(), bus.DefaultConfig(), 4)
	if _, err := sim.Run(chip, scen, g, sim.Config{PeriodS: 0.05, DurationS: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	d, mean, max := g.LatencyStats()
	if d != 0 || mean != 0 || max != 0 {
		t.Fatal("latency stats not reset")
	}
	for _, drv := range g.Drivers() {
		if drv.Accel().steps != 0 {
			t.Fatal("accelerator not reset")
		}
	}
}

func TestHWGovernorDeterministic(t *testing.T) {
	run := func() float64 {
		chip, scen := simSetup(t, "mixed")
		g, _ := NewGovernor(core.DefaultConfig(), bus.DefaultConfig(), 4)
		res, err := sim.Run(chip, scen, g, sim.Config{PeriodS: 0.05, DurationS: 10, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.QoS.TotalEnergyJ
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic hardware runs: %v vs %v", a, b)
	}
}
