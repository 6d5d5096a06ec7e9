package core

import (
	"errors"
	"math"
	"testing"

	"rlpm/internal/rng"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// learnSnapshot builds a deterministic snapshot for the given per-cluster
// action counts, with table values from a fixed rng stream.
func learnSnapshot(cfg Config, levels ...int) Snapshot {
	snap := Snapshot{State: cfg.State}
	r := rng.New(42)
	for _, n := range levels {
		states := cfg.State.States(n)
		table := make([][]float64, states)
		for s := range table {
			row := make([]float64, n)
			for a := range row {
				row[a] = r.Float64()*2 - 1
			}
			table[s] = row
		}
		snap.Tables = append(snap.Tables, table)
	}
	return snap
}

// learnPolicy loads snap under cfg, failing the test on error.
func learnPolicy(t *testing.T, cfg Config, snap Snapshot) *Policy {
	t.Helper()
	p, err := PolicyFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatalf("PolicyFromSnapshot: %v", err)
	}
	return p
}

// learnMirror is a governor that decides through stepper, a learning
// policy, and feeds every transition stepper's agents form to learner
// through Policy.Learn, checking each TD error against the one Step
// recorded.
type learnMirror struct {
	t                *testing.T
	cfg              Config
	stepper, learner *Policy
	mirrored         int
}

func (m *learnMirror) Name() string { return "learn-mirror" }
func (m *learnMirror) Reset()       {}

func (m *learnMirror) Decide(obs []sim.Observation) []int {
	type last struct {
		state, action int
		ok            bool
	}
	before := make([]last, len(m.stepper.agents))
	for c, a := range m.stepper.agents {
		before[c] = last{a.lastState, a.lastAction, a.hasLast}
	}
	levels := m.stepper.Decide(obs)
	for c, a := range m.stepper.agents {
		if !before[c].ok {
			continue
		}
		tr := Transition{Cluster: c, State: before[c].state, Action: before[c].action,
			NextState: a.lastState, Reward: m.cfg.Reward(obs[c])}
		td, err := m.learner.Learn(tr)
		if err != nil {
			m.t.Fatalf("Learn(%+v): %v", tr, err)
		}
		if math.Abs(td) != a.LastTD() || m.learner.agents[c].LastTD() != a.LastTD() {
			m.t.Fatalf("transition %d: Learn's TD error %v, Step's %v", m.mirrored, td, a.LastTD())
		}
		m.mirrored++
	}
	return levels
}

// TestLearnMatchesStep pins the one TD step under Q-learning: a policy
// stepping through a seeded simulation with learning on, and a second
// policy loaded from the same tables and fed the (s, a, r, s′)
// transitions the first one formed through Learn, end with bit-equal
// tables and equal TD errors at every step.
func TestLearnMatchesStep(t *testing.T) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	var levels []int
	for _, c := range soc.DefaultChipSpec().Clusters {
		levels = append(levels, len(c.OPPs))
	}
	cfg := DefaultConfig()
	snap := learnSnapshot(cfg, levels...)
	m := &learnMirror{t: t, cfg: cfg, stepper: learnPolicy(t, cfg, snap), learner: learnPolicy(t, cfg, snap)}
	m.stepper.SetLearning(true)

	spec, _ := workload.ByName("gaming")
	scen, err := workload.New(spec, chip.NumClusters(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(chip, scen, m, sim.Config{PeriodS: 0.05, DurationS: 20, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if m.mirrored < 700 {
		t.Fatalf("mirrored %d transitions, want a full run's worth", m.mirrored)
	}
	for c, a := range m.stepper.agents {
		b := m.learner.agents[c]
		for i := range a.q {
			if math.Float64bits(a.q[i]) != math.Float64bits(b.q[i]) {
				t.Fatalf("cluster %d slot %d: Step left %v, Learn %v", c, i, a.q[i], b.q[i])
			}
		}
	}
}

// TestLearnDoubleQFirstStepHandComputed exploits the q = q2 hydration
// convention: on the very first update both tables are identical, so the
// TD step is computable without knowing the Double-Q coin outcome.
func TestLearnDoubleQFirstStepHandComputed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm, cfg.Alpha, cfg.Gamma = DoubleQ, 0.5, 0.9
	snap := learnSnapshot(cfg, 4)
	p := learnPolicy(t, cfg, snap)
	tr := Transition{Cluster: 0, State: 3, Action: 1, NextState: 5, Reward: -0.25}

	next := snap.Tables[0][tr.NextState]
	best := next[0]
	for _, v := range next[1:] {
		if v > best {
			best = v
		}
	}
	wantTD := tr.Reward + cfg.Gamma*best - snap.Tables[0][tr.State][tr.Action]

	td, err := p.Learn(tr)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if math.Abs(td-wantTD) > 1e-12 {
		t.Fatalf("td = %v, want %v", td, wantTD)
	}
	// Only one of the two tables moved, so the published mean moves by
	// alpha*td/2.
	wantMean := snap.Tables[0][tr.State][tr.Action] + cfg.Alpha*wantTD/2
	got, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Tables[0][tr.State][tr.Action]; math.Abs(v-wantMean) > 1e-12 {
		t.Fatalf("snapshot mean = %v, want %v", v, wantMean)
	}
}

// TestLearnDoubleQSeededDeterminism pins the Double-Q coin to the config
// seed's per-cluster streams: two policies loaded from one snapshot under
// one config learn the same transitions identically.
func TestLearnDoubleQSeededDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm, cfg.Alpha, cfg.Gamma, cfg.Seed = DoubleQ, 0.3, 0.8, 11
	snap := learnSnapshot(cfg, 4, 3)
	gen := rng.New(99)
	trs := make([]Transition, 200)
	states := cfg.State.States(4)
	for i := range trs {
		trs[i] = Transition{
			Cluster:   gen.Intn(2),
			State:     gen.Intn(states),
			Action:    gen.Intn(3), // valid for both clusters
			NextState: gen.Intn(states),
			Reward:    gen.Float64()*2 - 1,
		}
		if trs[i].Cluster == 1 {
			trs[i].State %= cfg.State.States(3)
			trs[i].NextState %= cfg.State.States(3)
		}
	}
	a, b := learnPolicy(t, cfg, snap), learnPolicy(t, cfg, snap)
	for _, tr := range trs {
		tda, erra := a.Learn(tr)
		tdb, errb := b.Learn(tr)
		if erra != nil || errb != nil {
			t.Fatalf("Learn: %v / %v", erra, errb)
		}
		if tda != tdb {
			t.Fatalf("same-seed TD divergence: %v != %v", tda, tdb)
		}
	}
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	if !snapshotsBitEqual(sa, sb) {
		t.Fatal("same-seed table divergence")
	}
}

// TestLearnRejectsWithoutSideEffects pins the property a seeded replay
// depends on: a rejected transition must not advance the coin stream or
// touch the tables — a policy that saw (and rejected) garbage stays
// bit-identical to one that never saw it.
func TestLearnRejectsWithoutSideEffects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm, cfg.Alpha, cfg.Gamma = DoubleQ, 0.4, 0.7
	snap := learnSnapshot(cfg, 4)
	states := cfg.State.States(4)
	bad := []Transition{
		{Cluster: -1, State: 0, Action: 0, NextState: 0},
		{Cluster: 1, State: 0, Action: 0, NextState: 0},
		{Cluster: 0, State: -1, Action: 0, NextState: 0},
		{Cluster: 0, State: states, Action: 0, NextState: 0},
		{Cluster: 0, State: 0, Action: 0, NextState: states},
		{Cluster: 0, State: 0, Action: -1, NextState: 0},
		{Cluster: 0, State: 0, Action: 4, NextState: 0},
		{Cluster: 0, State: 0, Action: 0, NextState: 0, Reward: math.NaN()},
		{Cluster: 0, State: 0, Action: 0, NextState: 0, Reward: math.Inf(1)},
	}
	good := []Transition{
		{Cluster: 0, State: 1, Action: 2, NextState: 3, Reward: 0.5},
		{Cluster: 0, State: 3, Action: 0, NextState: 1, Reward: -0.5},
		{Cluster: 0, State: 2, Action: 3, NextState: 2, Reward: 0.1},
	}

	poisoned, clean := learnPolicy(t, cfg, snap), learnPolicy(t, cfg, snap)
	for i, tr := range good {
		for _, b := range bad {
			if _, err := poisoned.Learn(b); err == nil {
				t.Fatalf("Learn(%+v) accepted", b)
			}
		}
		tdp, err := poisoned.Learn(tr)
		if err != nil {
			t.Fatalf("Learn good %d: %v", i, err)
		}
		tdc, err := clean.Learn(tr)
		if err != nil {
			t.Fatalf("Learn good %d: %v", i, err)
		}
		if tdp != tdc {
			t.Fatalf("good transition %d diverged after rejected garbage: %v != %v", i, tdp, tdc)
		}
	}
	sp, _ := poisoned.Snapshot()
	sc, _ := clean.Snapshot()
	if !snapshotsBitEqual(sp, sc) {
		t.Fatal("tables diverged after rejected garbage")
	}
	if poisoned.agents[0].r.Float64() != clean.agents[0].r.Float64() {
		t.Fatal("rejected transitions drew from the coin stream")
	}
	if _, err := poisoned.Learn(Transition{Reward: math.NaN()}); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("NaN reward error = %v, want ErrBadObservation", err)
	}
}

// TestLearnRefusesSARSA: a transition carries no next action, so a SARSA
// policy refuses it and keeps its tables.
func TestLearnRefusesSARSA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = SARSA
	snap := learnSnapshot(cfg, 4)
	p := learnPolicy(t, cfg, snap)
	if _, err := p.Learn(Transition{Cluster: 0, State: 1, Action: 2, NextState: 3, Reward: 0.5}); err == nil {
		t.Fatal("SARSA policy learned from a transition")
	}
	if got, _ := p.Snapshot(); !snapshotsBitEqual(got, snap) {
		t.Fatal("refused transition moved the table")
	}
}

func TestValidateObservation(t *testing.T) {
	cfg := DefaultConfig()
	ok := obsFor(0.5, 0.97, 1.2, 2, 4, false, 0.1)
	if err := cfg.ValidateObservation(ok); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01}
	fields := []string{"DemandRatio", "QoS", "ClusterQoS", "Utilization"}
	for _, f := range fields {
		for _, v := range bads {
			o := ok
			switch f {
			case "DemandRatio":
				o.DemandRatio = v
			case "QoS":
				o.QoS = v
			case "ClusterQoS":
				o.ClusterQoS = v
			case "Utilization":
				o.Utilization = v
			}
			err := cfg.ValidateObservation(o)
			if !errors.Is(err, ErrBadObservation) {
				t.Fatalf("%s=%v: err = %v, want ErrBadObservation", f, v, err)
			}
		}
	}
}

// TestTablesIntoMatchesSnapshot pins in-place publication to the copying
// path: TablesInto, rewriting one recycled arena after each round of
// updates, leaves exactly NewFlatTables(Snapshot().Tables) behind, bit for
// bit, without allocating, for the one-table and the two-table (mean)
// algorithms; and a mis-shaped arena panics before any write.
func TestTablesIntoMatchesSnapshot(t *testing.T) {
	for _, algo := range []Algorithm{QLearning, DoubleQ} {
		t.Run(string(algo), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Algorithm, cfg.Alpha, cfg.Gamma, cfg.Seed = algo, 0.3, 0.8, 5
			snap := learnSnapshot(cfg, 4, 3)
			p := learnPolicy(t, cfg, snap)
			arena := NewFlatTables(snap.Tables).NewLike()
			gen := rng.New(7)
			for round := 0; round < 3; round++ {
				for i := 0; i < 100; i++ {
					c := gen.Intn(2)
					actions := []int{4, 3}[c]
					states := cfg.State.States(actions)
					tr := Transition{Cluster: c, State: gen.Intn(states), Action: gen.Intn(actions),
						NextState: gen.Intn(states), Reward: gen.Float64()*2 - 1}
					if _, err := p.Learn(tr); err != nil {
						t.Fatalf("Learn: %v", err)
					}
				}
				p.TablesInto(arena)
				snap, _ := p.Snapshot()
				want := NewFlatTables(snap.Tables)
				for i := range want.arena {
					if math.Float64bits(arena.arena[i]) != math.Float64bits(want.arena[i]) {
						t.Fatalf("round %d: arena slot %d = %v, snapshot path has %v", round, i, arena.arena[i], want.arena[i])
					}
				}
			}
			if n := testing.AllocsPerRun(20, func() { p.TablesInto(arena) }); n != 0 {
				t.Errorf("TablesInto allocates %v times per call, want 0", n)
			}

			other := NewFlatTables(learnSnapshot(cfg, 4).Tables)
			before := append([]float64(nil), other.arena...)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("TablesInto accepted an arena of a different shape")
					}
				}()
				p.TablesInto(other)
			}()
			for i, v := range other.arena {
				if math.Float64bits(v) != math.Float64bits(before[i]) {
					t.Fatalf("mis-shaped TablesInto wrote slot %d before panicking", i)
				}
			}
		})
	}
}
