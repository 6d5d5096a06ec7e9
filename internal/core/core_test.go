package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rlpm/internal/sim"
)

func obsFor(util, qosv, demand float64, level, numLevels int, critical bool, energy float64) sim.Observation {
	return sim.Observation{
		Utilization:    util,
		DemandRatio:    demand,
		QoS:            qosv,
		Critical:       critical,
		Level:          level,
		NumLevels:      numLevels,
		EnergyJ:        energy,
		ClusterEnergyJ: energy,
		ClusterQoS:     qosv,
		PeriodS:        0.05,
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejectsBad(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"alpha 0", func(c *Config) { c.Alpha = 0 }},
		{"alpha >1", func(c *Config) { c.Alpha = 1.5 }},
		{"gamma 1", func(c *Config) { c.Gamma = 1 }},
		{"gamma neg", func(c *Config) { c.Gamma = -0.1 }},
		{"eps min > start", func(c *Config) { c.EpsilonMin = 0.9 }},
		{"eps start >1", func(c *Config) { c.EpsilonStart = 1.5 }},
		{"decay 0", func(c *Config) { c.EpsilonDecay = 0 }},
		{"neg lambda", func(c *Config) { c.LambdaViolation = -1 }},
		{"qos threshold 0", func(c *Config) { c.QoSThreshold = 0 }},
		{"energy scale 0", func(c *Config) { c.EnergyScaleJ = 0 }},
		{"util bins 0", func(c *Config) { c.State.LoadBins = 0 }},
		{"util bins past the cap", func(c *Config) { c.State.LoadBins = maxStateBins + 1 }},
		{"qos bins past the cap", func(c *Config) { c.State.QoSBins = maxStateBins + 1 }},
		{"trend bins 2", func(c *Config) { c.State.TrendBins = 2 }},
	}
	for _, cse := range cases {
		c := DefaultConfig()
		cse.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", cse.name)
		}
	}
}

func TestStateConfigStates(t *testing.T) {
	s := DefaultStateConfig()
	if got := s.States(9); got != 8*4*3*9 {
		t.Fatalf("States(9) = %d", got)
	}
}

func TestEncodeStateInRangeExhaustive(t *testing.T) {
	cfg := DefaultConfig()
	const numLevels = 9
	max := cfg.State.States(numLevels)
	seen := map[int]bool{}
	for _, util := range []float64{0, 0.1, 0.49, 0.5, 0.99, 1.0, 1.5} {
		for _, q := range []float64{0, 0.3, 0.6, 0.96, 1} {
			for _, dr := range []float64{0, 0.5, 2} {
				for _, prev := range []float64{0, 0.5, 2} {
					for lvl := 0; lvl < numLevels; lvl++ {
						o := obsFor(util, q, dr, lvl, numLevels, false, 0.1)
						s := cfg.EncodeState(o, prev)
						if s < 0 || s >= max {
							t.Fatalf("state %d out of [0,%d) for util=%v qos=%v", s, max, util, q)
						}
						seen[s] = true
					}
				}
			}
		}
	}
	if len(seen) < 50 {
		t.Fatalf("encoding collapses too much: only %d distinct states", len(seen))
	}
}

func TestEncodeStateTrend(t *testing.T) {
	cfg := DefaultConfig()
	o := obsFor(0.5, 1, 0.5, 0, 9, false, 0.1)
	up := cfg.EncodeState(o, 0.2)
	down := cfg.EncodeState(o, 0.9)
	flat := cfg.EncodeState(o, 0.5)
	if up == down || up == flat || down == flat {
		t.Fatalf("trend bands not distinguished: up=%d down=%d flat=%d", up, down, flat)
	}
}

func TestEncodeStateTrendDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.State.TrendBins = 1
	o := obsFor(0.5, 1, 0.5, 0, 9, false, 0.1)
	if cfg.EncodeState(o, 0.2) != cfg.EncodeState(o, 0.9) {
		t.Fatal("trend bins=1 still distinguishes trends")
	}
}

func TestRewardShape(t *testing.T) {
	cfg := DefaultConfig()
	// More energy → lower reward.
	lo := cfg.Reward(obsFor(0.5, 1, 0.5, 4, 9, false, 0.05))
	hi := cfg.Reward(obsFor(0.5, 1, 0.5, 4, 9, false, 0.30))
	if hi >= lo {
		t.Fatalf("reward not decreasing in energy: %v >= %v", hi, lo)
	}
	// Violation on a critical period is penalized beyond the QoS shaping.
	viol := cfg.Reward(obsFor(0.5, 0.5, 0.5, 4, 9, true, 0.05))
	same := cfg.Reward(obsFor(0.5, 0.5, 0.5, 4, 9, false, 0.05))
	if math.Abs((same-viol)-cfg.LambdaViolation) > 1e-12 {
		t.Fatalf("violation penalty = %v, want %v", same-viol, cfg.LambdaViolation)
	}
	// No penalty when QoS meets the threshold on a critical period.
	ok := cfg.Reward(obsFor(0.5, 0.99, 0.5, 4, 9, true, 0.05))
	okNC := cfg.Reward(obsFor(0.5, 0.99, 0.5, 4, 9, false, 0.05))
	if ok != okNC {
		t.Fatalf("penalty applied despite meeting threshold: %v vs %v", ok, okNC)
	}
}

func TestNewAgentValidates(t *testing.T) {
	if _, err := NewAgent(DefaultConfig(), 0, 0); err == nil {
		t.Fatal("0 levels accepted")
	}
	bad := DefaultConfig()
	bad.Alpha = 0
	if _, err := NewAgent(bad, 9, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAgentStepPanicsOnLevelMismatch(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched NumLevels did not panic")
		}
	}()
	a.Step(obsFor(0.5, 1, 0.5, 0, 8, false, 0.1))
}

func TestAgentActionsInRange(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	for i := 0; i < 5000; i++ {
		o := obsFor(float64(i%11)/10, float64(i%7)/6, float64(i%5)/2, i%9, 9, i%3 == 0, 0.1)
		act := a.Step(o)
		if act < 0 || act >= 9 {
			t.Fatalf("action %d out of range at step %d", act, i)
		}
	}
}

func TestAgentDeterministic(t *testing.T) {
	run := func() []int {
		a, _ := NewAgent(DefaultConfig(), 9, 3)
		var acts []int
		for i := 0; i < 1000; i++ {
			o := obsFor(float64(i%10)/10, 1, 0.5, i%9, 9, false, 0.1)
			acts = append(acts, a.Step(o))
		}
		return acts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged", i)
		}
	}
}

func TestAgentLearnsSimpleBandit(t *testing.T) {
	// Stationary single-state problem: action k yields reward via energy
	// proportional to k, so the greedy policy must converge to action 0.
	cfg := DefaultConfig()
	cfg.State = StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}
	cfg.EpsilonDecay = 0.999
	a, err := NewAgent(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reward depends on the observation that *follows* the action; feed
	// back energy proportional to the previous action.
	prev := 0
	for i := 0; i < 20000; i++ {
		o := obsFor(0.5, 1, 0.5, prev, 5, false, 0.05*float64(prev+1))
		prev = a.Step(o)
	}
	a.SetLearning(false)
	o := obsFor(0.5, 1, 0.5, prev, 5, false, 0.05*float64(prev+1))
	if got := a.Step(o); got != 0 {
		t.Fatalf("bandit converged to action %d, want 0 (cheapest)", got)
	}
}

func TestAgentAvoidsViolations(t *testing.T) {
	// Two regimes: low actions trigger critical violations (QoS 0.5),
	// high actions avoid them but cost more energy. The violation penalty
	// must push the greedy choice to a non-violating action.
	cfg := DefaultConfig()
	cfg.State = StateConfig{LoadBins: 1, QoSBins: 2, TrendBins: 1}
	a, _ := NewAgent(cfg, 4, 0)
	prev := 0
	for i := 0; i < 30000; i++ {
		var q float64
		var energy float64
		if prev < 2 {
			q, energy = 0.5, 0.02*float64(prev+1)
		} else {
			q, energy = 1.0, 0.08*float64(prev+1)
		}
		prev = a.Step(obsFor(0.5, q, 0.5, prev, 4, true, energy))
	}
	a.SetLearning(false)
	final := a.Step(obsFor(0.5, 1, 0.5, prev, 4, true, 0.08))
	if final < 2 {
		t.Fatalf("policy settled on violating action %d", final)
	}
}

func TestEpsilonDecays(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	start := a.Epsilon()
	for i := 0; i < 5000; i++ {
		a.Step(obsFor(0.5, 1, 0.5, 0, 9, false, 0.1))
	}
	if a.Epsilon() >= start {
		t.Fatalf("epsilon did not decay: %v -> %v", start, a.Epsilon())
	}
	for i := 0; i < 200000; i++ {
		a.Step(obsFor(0.5, 1, 0.5, 0, 9, false, 0.1))
	}
	if got := a.Epsilon(); math.Abs(got-DefaultConfig().EpsilonMin) > 1e-9 {
		t.Fatalf("epsilon floor = %v, want %v", got, DefaultConfig().EpsilonMin)
	}
}

func TestFrozenAgentDoesNotLearnOrExplore(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	for i := 0; i < 1000; i++ {
		a.Step(obsFor(0.5, 1, 0.5, i%9, 9, false, 0.1))
	}
	a.SetLearning(false)
	before := agentTable(a)
	var acts []int
	for i := 0; i < 500; i++ {
		acts = append(acts, a.Step(obsFor(0.5, 1, 0.5, 4, 9, false, 0.1)))
	}
	after := agentTable(a)
	for s := range before {
		for x := range before[s] {
			if before[s][x] != after[s][x] {
				t.Fatal("frozen agent mutated its table")
			}
		}
	}
	for _, act := range acts[1:] {
		if act != acts[0] {
			t.Fatal("frozen agent in a fixed state is not deterministic")
		}
	}
}

// agentTable copies a's greedy table out in nested form.
func agentTable(a *Agent) [][]float64 {
	flat := make([]float64, len(a.q))
	a.tableInto(flat)
	out := make([][]float64, a.NumStates())
	for s := range out {
		out[s] = flat[s*a.numLevels : (s+1)*a.numLevels]
	}
	return out
}

// TestTableLoadRoundTrip hydrates a policy from a trained agent's table
// and checks every value arrives, and that tables of another shape are
// refused.
func TestTableLoadRoundTrip(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	for i := 0; i < 2000; i++ {
		a.Step(obsFor(float64(i%10)/10, 1, 0.5, i%9, 9, false, 0.1))
	}
	tab := agentTable(a)
	p, err := PolicyFromTables(DefaultConfig(), DefaultConfig().State, NewFlatTables([][][]float64{tab}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.agents[0].q, a.q) {
		t.Fatal("table round trip lost values")
	}
	// Shape mismatches rejected.
	if _, err := PolicyFromTables(DefaultConfig(), DefaultConfig().State, NewFlatTables([][][]float64{tab[:5]})); err == nil {
		t.Fatal("short table accepted")
	}
	badRow := agentTable(a)
	badRow[0] = badRow[0][:3]
	if _, err := PolicyFromTables(DefaultConfig(), DefaultConfig().State, NewFlatTables([][][]float64{badRow})); err == nil {
		t.Fatal("ragged table accepted")
	}
}

// TestTableIsDeepCopy checks that the arena a policy hands out and the
// arena it was loaded from are copies: writing either leaves the agents'
// tables alone.
func TestTableIsDeepCopy(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	src := NewFlatTables([][][]float64{agentTable(a)})
	p, err := PolicyFromTables(DefaultConfig(), DefaultConfig().State, src)
	if err != nil {
		t.Fatal(err)
	}
	src.arena[0] = 123
	_, out, err := p.Tables()
	if err != nil {
		t.Fatal(err)
	}
	out.arena[1] = 456
	if q := p.agents[0].q; q[0] == 123 || q[1] == 456 {
		t.Fatal("a policy's tables alias an arena")
	}
}

func TestResetRestoresInitialBehaviour(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 9, 5)
	var first []int
	for i := 0; i < 300; i++ {
		first = append(first, a.Step(obsFor(0.5, 1, 0.5, i%9, 9, false, 0.1)))
	}
	a.Reset()
	if a.Epsilon() != DefaultConfig().EpsilonStart {
		t.Fatalf("epsilon after reset = %v", a.Epsilon())
	}
	for i := 0; i < 300; i++ {
		if got := a.Step(obsFor(0.5, 1, 0.5, i%9, 9, false, 0.1)); got != first[i] {
			t.Fatalf("step %d after Reset diverged", i)
		}
	}
}

// Property: encoded states are always in range for arbitrary observations.
func TestEncodeStateRangeProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(util, q, dr, prev float64, lvl uint8) bool {
		if math.IsNaN(util) || math.IsNaN(q) || math.IsNaN(dr) || math.IsNaN(prev) {
			return true
		}
		o := obsFor(clamp01(util), clamp01(q), math.Abs(dr), int(lvl)%9, 9, false, 0.1)
		s := cfg.EncodeState(o, math.Abs(prev))
		return s >= 0 && s < cfg.State.States(9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	v = math.Abs(v)
	if v > 1 {
		return 1
	}
	return v
}

// Property: reward is finite for finite inputs and monotone in energy.
func TestRewardMonotoneProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(e1, e2 uint16, q uint8, critical bool) bool {
		lo := float64(e1) / 1000
		hi := lo + float64(e2)/1000 + 0.001
		qv := float64(q%101) / 100
		rLo := cfg.Reward(obsFor(0.5, qv, 0.5, 4, 9, critical, lo))
		rHi := cfg.Reward(obsFor(0.5, qv, 0.5, 4, 9, critical, hi))
		return rHi < rLo && !math.IsNaN(rLo) && !math.IsInf(rLo, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAgentStep(b *testing.B) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	o := obsFor(0.63, 0.97, 0.7, 4, 9, true, 0.12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(o)
	}
}

func BenchmarkAgentStepFrozen(b *testing.B) {
	a, _ := NewAgent(DefaultConfig(), 9, 0)
	for i := 0; i < 10000; i++ {
		a.Step(obsFor(0.63, 0.97, 0.7, i%9, 9, true, 0.12))
	}
	a.SetLearning(false)
	o := obsFor(0.63, 0.97, 0.7, 4, 9, true, 0.12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(o)
	}
}
