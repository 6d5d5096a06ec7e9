package core

import (
	"testing"

	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func TestAlgorithmValidate(t *testing.T) {
	for _, a := range []Algorithm{"", QLearning, SARSA, DoubleQ} {
		if err := a.Validate(); err != nil {
			t.Errorf("%q rejected: %v", a, err)
		}
	}
	if err := Algorithm("dqn").Validate(); err == nil {
		t.Error("unknown algorithm accepted")
	}
	cfg := DefaultConfig()
	cfg.Algorithm = "dqn"
	if err := cfg.Validate(); err == nil {
		t.Error("config with unknown algorithm accepted")
	}
}

func TestAlgorithmNormalize(t *testing.T) {
	if Algorithm("").normalize() != QLearning {
		t.Fatal("empty does not normalize to qlearning")
	}
	if SARSA.normalize() != SARSA {
		t.Fatal("sarsa does not normalize to itself")
	}
}

func algoConfig(a Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = a
	return cfg
}

func TestAllAlgorithmsLearnTheBandit(t *testing.T) {
	// The single-state energy bandit from core_test.go: every algorithm
	// must converge to the cheapest action.
	for _, algo := range []Algorithm{QLearning, SARSA, DoubleQ} {
		cfg := algoConfig(algo)
		cfg.State = StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}
		cfg.EpsilonDecay = 0.999
		a, err := NewAgent(cfg, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for i := 0; i < 30000; i++ {
			o := obsFor(0.5, 1, 0.5, prev, 5, false, 0.05*float64(prev+1))
			prev = a.Step(o)
		}
		a.SetLearning(false)
		got := a.Step(obsFor(0.5, 1, 0.5, prev, 5, false, 0.05*float64(prev+1)))
		if got != 0 {
			t.Errorf("%s converged to action %d, want 0", algo, got)
		}
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	for _, algo := range []Algorithm{SARSA, DoubleQ} {
		run := func() []int {
			a, _ := NewAgent(algoConfig(algo), 9, 3)
			var acts []int
			for i := 0; i < 500; i++ {
				acts = append(acts, a.Step(obsFor(float64(i%10)/10, 1, 0.5, i%9, 9, false, 0.1)))
			}
			return acts
		}
		x, y := run(), run()
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s diverged at step %d", algo, i)
			}
		}
	}
}

func TestDoubleQTablesExistAndAverage(t *testing.T) {
	a, err := NewAgent(algoConfig(DoubleQ), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.q2 == nil {
		t.Fatal("DoubleQ agent has no second table")
	}
	for i := 0; i < 2000; i++ {
		a.Step(obsFor(0.5, 0.9, 0.5, i%4, 4, true, 0.1))
	}
	// Table() must be the mean of both tables.
	tab := a.Table()
	for s := range tab {
		for x := range tab[s] {
			i := s*a.NumActions() + x
			want := (a.q[i] + a.q2[i]) / 2
			if tab[s][x] != want {
				t.Fatalf("Table[%d][%d] = %v, want mean %v", s, x, tab[s][x], want)
			}
		}
	}
}

func TestDoubleQLoadTableSetsBoth(t *testing.T) {
	a, _ := NewAgent(algoConfig(DoubleQ), 4, 0)
	tab := a.Table()
	tab[0][2] = 7.5
	if err := a.LoadTable(tab); err != nil {
		t.Fatal(err)
	}
	if a.q[2] != 7.5 || a.q2[2] != 7.5 { // state 0, action 2
		t.Fatal("LoadTable did not set both tables")
	}
}

func TestDoubleQResetClearsBoth(t *testing.T) {
	a, _ := NewAgent(algoConfig(DoubleQ), 4, 0)
	for i := 0; i < 1000; i++ {
		a.Step(obsFor(0.5, 0.9, 0.5, i%4, 4, true, 0.1))
	}
	a.Reset()
	for i := range a.q {
		if a.q[i] != 0 || a.q2[i] != 0 {
			t.Fatal("Reset left residue in a table")
		}
	}
}

func TestQLearningHasNoSecondTable(t *testing.T) {
	a, _ := NewAgent(DefaultConfig(), 4, 0)
	if a.q2 != nil {
		t.Fatal("QLearning agent allocated a second table")
	}
}

func TestAlgorithmsCloseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs")
	}
	// All three algorithms should land in the same quality ballpark on
	// video after equal training (within 20% of each other).
	results := map[Algorithm]float64{}
	for _, algo := range []Algorithm{QLearning, SARSA, DoubleQ} {
		chip, err := soc.NewChip(soc.DefaultChipSpec())
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := workload.ByName("video")
		scen, _ := workload.New(spec, 2, 1)
		cfg := sim.Config{PeriodS: 0.05, DurationS: 60, Seed: 1}
		p := MustPolicy(algoConfig(algo))
		if _, err := Train(chip, scen, p, cfg, 25); err != nil {
			t.Fatal(err)
		}
		p.SetLearning(false)
		res, err := sim.Run(chip, scen, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[algo] = res.QoS.EnergyPerQoS
	}
	base := results[QLearning]
	for algo, eq := range results {
		if eq > base*1.2 || eq < base*0.8 {
			t.Errorf("%s E/QoS %v deviates >20%% from QLearning %v", algo, eq, base)
		}
	}
}
