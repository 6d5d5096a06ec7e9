package soc

import (
	"math"
	"testing"
	"testing/quick"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(LittleClusterSpec(), DefaultThermal())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpecValidate(t *testing.T) {
	good := LittleClusterSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*ClusterSpec)
	}{
		{"no name", func(s *ClusterSpec) { s.Name = "" }},
		{"zero cores", func(s *ClusterSpec) { s.NumCores = 0 }},
		{"no OPPs", func(s *ClusterSpec) { s.OPPs = nil }},
		{"zero freq", func(s *ClusterSpec) { s.OPPs[0].FreqHz = 0 }},
		{"zero volt", func(s *ClusterSpec) { s.OPPs[2].VoltV = 0 }},
		{"descending", func(s *ClusterSpec) { s.OPPs[1].FreqHz = s.OPPs[0].FreqHz }},
		{"zero ceff", func(s *ClusterSpec) { s.CeffF = 0 }},
		{"neg leak", func(s *ClusterSpec) { s.LeakA0 = -1 }},
		{"zero leak doubling", func(s *ClusterSpec) { s.LeakDoubleC = 0 }},
	}
	for _, c := range cases {
		s := LittleClusterSpec()
		s.OPPs = append([]OPP(nil), s.OPPs...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad spec", c.name)
		}
	}
}

func TestNewClusterRejectsBadThermal(t *testing.T) {
	th := DefaultThermal()
	th.RthCPerW = 0
	if _, err := NewCluster(LittleClusterSpec(), th); err == nil {
		t.Fatal("zero Rth accepted")
	}
	th = DefaultThermal()
	th.ThrottleLv = 99
	if _, err := NewCluster(LittleClusterSpec(), th); err == nil {
		t.Fatal("out-of-range throttle level accepted")
	}
}

func TestSetLevelClamps(t *testing.T) {
	c := testCluster(t)
	if got := c.SetLevel(-3); got != 0 {
		t.Errorf("SetLevel(-3) = %d", got)
	}
	if got := c.SetLevel(999); got != c.NumLevels()-1 {
		t.Errorf("SetLevel(999) = %d", got)
	}
	if got := c.SetLevel(2); got != 2 || c.Level() != 2 {
		t.Errorf("SetLevel(2) = %d, Level() = %d", got, c.Level())
	}
}

func TestStepValidatesArgs(t *testing.T) {
	c := testCluster(t)
	if _, err := c.Step(Demand{Cycles: 1, Parallelism: 1}, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := c.Step(Demand{Cycles: -1, Parallelism: 1}, 0.05); err == nil {
		t.Error("negative cycles accepted")
	}
	if _, err := c.Step(Demand{Cycles: 1, Parallelism: -1}, 0.05); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestStepCompletesBoundedWork(t *testing.T) {
	c := testCluster(t)
	c.SetLevel(0) // 400 MHz
	dt := 0.05
	// Demand more than one core can do but with parallelism 1.
	demand := Demand{Cycles: 100e6, Parallelism: 1}
	r, err := c.Step(demand, dt)
	if err != nil {
		t.Fatal(err)
	}
	wantCap := 400e6 * dt * 1
	if r.CapacityCycles != wantCap {
		t.Errorf("capacity = %v, want %v", r.CapacityCycles, wantCap)
	}
	if r.CompletedCycles != wantCap {
		t.Errorf("completed = %v, want saturated %v", r.CompletedCycles, wantCap)
	}
	// Utilization is against usable cores (the one runnable thread), so a
	// saturated single-thread load reads 100% — cpufreq's busiest-core view.
	if math.Abs(r.Utilization-1.0) > 1e-12 {
		t.Errorf("utilization = %v, want 1.0", r.Utilization)
	}
	// Half the demand on the same single core reads 50%.
	c2 := testCluster(t)
	c2.SetLevel(0)
	r2, err := c2.Step(Demand{Cycles: 10e6, Parallelism: 1}, dt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Utilization-0.5) > 1e-12 {
		t.Errorf("half-load utilization = %v, want 0.5", r2.Utilization)
	}
}

func TestStepIdleHasOnlyLeakage(t *testing.T) {
	c := testCluster(t)
	r, err := c.Step(Demand{}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicPowerW != 0 {
		t.Errorf("idle dynamic power = %v", r.DynamicPowerW)
	}
	if r.LeakPowerW <= 0 {
		t.Errorf("idle leakage = %v, want positive", r.LeakPowerW)
	}
	if r.Utilization != 0 || r.CompletedCycles != 0 {
		t.Errorf("idle did work: %+v", r)
	}
}

func TestHigherFreqCompletesMore(t *testing.T) {
	demand := Demand{Cycles: 1e12, Parallelism: 4}
	lo := testCluster(t)
	hi := testCluster(t)
	lo.SetLevel(0)
	hi.SetLevel(hi.NumLevels() - 1)
	rl, _ := lo.Step(demand, 0.05)
	rh, _ := hi.Step(demand, 0.05)
	if rh.CompletedCycles <= rl.CompletedCycles {
		t.Fatalf("high freq completed %v <= low freq %v", rh.CompletedCycles, rl.CompletedCycles)
	}
}

func TestHigherFreqUsesMoreEnergyForSameSaturatingLoad(t *testing.T) {
	demand := Demand{Cycles: 1e12, Parallelism: 4}
	lo := testCluster(t)
	hi := testCluster(t)
	lo.SetLevel(0)
	hi.SetLevel(hi.NumLevels() - 1)
	rl, _ := lo.Step(demand, 0.05)
	rh, _ := hi.Step(demand, 0.05)
	// Energy per completed cycle must be worse at the high OPP (V² scaling):
	// this is the entire premise of DVFS.
	eppLo := rl.EnergyJ / rl.CompletedCycles
	eppHi := rh.EnergyJ / rh.CompletedCycles
	if eppHi <= eppLo {
		t.Fatalf("energy/cycle hi=%v <= lo=%v; V² scaling broken", eppHi, eppLo)
	}
}

func TestRaceToIdleTradeoffExists(t *testing.T) {
	// For a fixed *finite* job, running faster finishes sooner; the model
	// must charge dynamic energy only for cycles executed, so dynamic
	// energy for the job scales with V² — the slow OPP must win on energy.
	job := 20e6 // cycles
	lo := testCluster(t)
	hi := testCluster(t)
	lo.SetLevel(0)
	hi.SetLevel(hi.NumLevels() - 1)
	rl, _ := lo.Step(Demand{Cycles: job, Parallelism: 1}, 0.05)
	rh, _ := hi.Step(Demand{Cycles: job, Parallelism: 1}, 0.05)
	if rl.CompletedCycles != job || rh.CompletedCycles != job {
		t.Fatalf("job did not complete: lo=%v hi=%v", rl.CompletedCycles, rh.CompletedCycles)
	}
	dynLo := rl.DynamicPowerW * 0.05
	dynHi := rh.DynamicPowerW * 0.05
	if dynLo >= dynHi {
		t.Fatalf("dynamic energy lo=%v >= hi=%v for the same job", dynLo, dynHi)
	}
}

func TestThermalHeatsUnderLoadAndThrottles(t *testing.T) {
	th := DefaultThermal()
	th.ThrottleC = 45 // low ceiling so the test hits it fast
	c, err := NewCluster(BigClusterSpec(), th)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLevel(c.NumLevels() - 1)
	demand := Demand{Cycles: 1e12, Parallelism: 4}
	var sawThrottle bool
	prevTemp := c.TempC()
	for i := 0; i < 2000; i++ {
		r, err := c.Step(demand, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throttled {
			sawThrottle = true
			if r.Level != th.ThrottleLv {
				t.Fatalf("throttled to level %d, want %d", r.Level, th.ThrottleLv)
			}
			break
		}
		if r.TempC < prevTemp-1e-9 {
			t.Fatalf("temperature fell under full load: %v -> %v", prevTemp, r.TempC)
		}
		prevTemp = r.TempC
	}
	if !sawThrottle {
		t.Fatalf("never throttled; final temp %v", c.TempC())
	}
}

func TestThermalCoolsWhenIdle(t *testing.T) {
	c := testCluster(t)
	c.SetLevel(c.NumLevels() - 1)
	for i := 0; i < 400; i++ {
		_, _ = c.Step(Demand{Cycles: 1e12, Parallelism: 4}, 0.05)
	}
	hot := c.TempC()
	c.SetLevel(0)
	for i := 0; i < 400; i++ {
		_, _ = c.Step(Demand{}, 0.05)
	}
	if c.TempC() >= hot {
		t.Fatalf("idle cluster did not cool: %v -> %v", hot, c.TempC())
	}
}

func TestReset(t *testing.T) {
	c := testCluster(t)
	c.SetLevel(5)
	for i := 0; i < 100; i++ {
		_, _ = c.Step(Demand{Cycles: 1e12, Parallelism: 4}, 0.05)
	}
	c.Reset()
	if c.Level() != 0 || c.TempC() != DefaultThermal().AmbientC {
		t.Fatalf("Reset left level=%d temp=%v", c.Level(), c.TempC())
	}
}

func TestChipStepAggregates(t *testing.T) {
	ch, err := NewChip(DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d", ch.NumClusters())
	}
	res, err := ch.Step([]Demand{
		{Cycles: 10e6, Parallelism: 2},
		{Cycles: 50e6, Parallelism: 2},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Clusters {
		sum += r.EnergyJ
	}
	sum += res.UncorePowerW * 0.05
	if math.Abs(res.EnergyJ-sum) > 1e-12 {
		t.Fatalf("chip energy %v != parts %v", res.EnergyJ, sum)
	}
	if ch.TotalEnergyJ() != res.EnergyJ {
		t.Fatalf("accumulator %v != step %v", ch.TotalEnergyJ(), res.EnergyJ)
	}
	if ch.totalTimeS != 0.05 {
		t.Fatalf("total time %v", ch.totalTimeS)
	}
}

func TestChipStepDemandMismatch(t *testing.T) {
	ch, _ := NewChip(DefaultChipSpec())
	if _, err := ch.Step([]Demand{{}}, 0.05); err == nil {
		t.Fatal("demand/cluster mismatch accepted")
	}
}

func TestChipValidation(t *testing.T) {
	if _, err := NewChip(ChipSpec{}); err == nil {
		t.Fatal("empty chip accepted")
	}
	spec := DefaultChipSpec()
	spec.UncoreIdleW = -1
	if _, err := NewChip(spec); err == nil {
		t.Fatal("negative uncore accepted")
	}
	spec = DefaultChipSpec()
	spec.Clusters = []ClusterSpec{LittleClusterSpec(), LittleClusterSpec()}
	if _, err := NewChip(spec); err == nil {
		t.Fatal("duplicate cluster names accepted")
	}
}

func TestChipReset(t *testing.T) {
	ch, _ := NewChip(DefaultChipSpec())
	_, _ = ch.Step([]Demand{{Cycles: 1e6, Parallelism: 1}, {}}, 0.05)
	ch.Reset()
	if ch.TotalEnergyJ() != 0 || ch.totalTimeS != 0 {
		t.Fatal("Reset did not clear accumulators")
	}
}

func TestSymmetricChipSpec(t *testing.T) {
	ch, err := NewChip(SymmetricChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumClusters() != 1 || ch.Cluster(0).Spec().NumCores != 8 {
		t.Fatalf("symmetric chip wrong shape")
	}
}

// Property: completed cycles never exceed capacity or demand, and
// utilization stays in [0,1].
func TestStepInvariantsProperty(t *testing.T) {
	c := testCluster(t)
	f := func(cyclesRaw uint32, par uint8, lvl uint8) bool {
		c.Reset()
		c.SetLevel(int(lvl) % c.NumLevels())
		d := Demand{Cycles: float64(cyclesRaw) * 1e3, Parallelism: int(par % 9)}
		r, err := c.Step(d, 0.05)
		if err != nil {
			return false
		}
		if r.CompletedCycles > r.CapacityCycles+1e-9 || r.CompletedCycles > d.Cycles+1e-9 {
			return false
		}
		if r.Utilization < 0 || r.Utilization > 1+1e-12 {
			return false
		}
		return r.EnergyJ >= 0 && r.DynamicPowerW >= 0 && r.LeakPowerW >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is monotone in level for a saturating load (same period).
func TestEnergyMonotoneInLevelProperty(t *testing.T) {
	demand := Demand{Cycles: 1e12, Parallelism: 4}
	prev := -1.0
	c := testCluster(t)
	for lvl := 0; lvl < c.NumLevels(); lvl++ {
		c.Reset()
		c.SetLevel(lvl)
		r, err := c.Step(demand, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r.EnergyJ <= prev {
			t.Fatalf("energy not increasing at level %d: %v <= %v", lvl, r.EnergyJ, prev)
		}
		prev = r.EnergyJ
	}
}

func TestDefaultPowerEnvelope(t *testing.T) {
	// Full-tilt big cluster should land in the 3–7 W band a mobile SoC
	// actually dissipates; this guards the calibration constants.
	c, _ := NewCluster(BigClusterSpec(), DefaultThermal())
	c.SetLevel(c.NumLevels() - 1)
	r, _ := c.Step(Demand{Cycles: 1e12, Parallelism: 4}, 0.05)
	if p := r.PowerW(); p < 3 || p > 7 {
		t.Fatalf("big cluster full power = %v W, want 3–7 W", p)
	}
	l, _ := NewCluster(LittleClusterSpec(), DefaultThermal())
	l.SetLevel(l.NumLevels() - 1)
	rl, _ := l.Step(Demand{Cycles: 1e12, Parallelism: 4}, 0.05)
	if p := rl.PowerW(); p < 0.8 || p > 3 {
		t.Fatalf("little cluster full power = %v W, want 0.8–3 W", p)
	}
}

func BenchmarkClusterStep(b *testing.B) {
	c, _ := NewCluster(BigClusterSpec(), DefaultThermal())
	c.SetLevel(4)
	d := Demand{Cycles: 50e6, Parallelism: 3}
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(d, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChipStep(b *testing.B) {
	ch, _ := NewChip(DefaultChipSpec())
	d := []Demand{{Cycles: 20e6, Parallelism: 2}, {Cycles: 60e6, Parallelism: 2}}
	for i := 0; i < b.N; i++ {
		if _, err := ch.Step(d, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
