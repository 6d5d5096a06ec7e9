package core

import (
	"errors"
	"math"
	"testing"

	"rlpm/internal/rng"
)

// updaterSnapshot builds a deterministic snapshot for the given per-cluster
// action counts, with table values from a fixed rng stream.
func updaterSnapshot(cfg Config, levels ...int) Snapshot {
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

// TestTDUpdaterFirstStepHandComputed exploits the q = q2 = mean hydration
// convention: on the very first update both tables are identical, so the
// TD step is computable without knowing the Double-Q coin outcome.
func TestTDUpdaterFirstStepHandComputed(t *testing.T) {
	cfg := DefaultConfig()
	snap := updaterSnapshot(cfg, 4)
	const alpha, gamma = 0.5, 0.9
	u, err := NewTDUpdater(cfg, snap, 7, alpha, gamma)
	if err != nil {
		t.Fatalf("NewTDUpdater: %v", err)
	}
	tr := Transition{Cluster: 0, State: 3, Action: 1, NextState: 5, Reward: -0.25}

	next := snap.Tables[0][tr.NextState]
	best := next[0]
	for _, v := range next[1:] {
		if v > best {
			best = v
		}
	}
	wantTD := tr.Reward + gamma*best - snap.Tables[0][tr.State][tr.Action]

	td, err := u.Apply(tr)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if math.Abs(td-wantTD) > 1e-12 {
		t.Fatalf("td = %v, want %v", td, wantTD)
	}
	if got := u.Applied(); got != 1 {
		t.Fatalf("Applied = %d, want 1", got)
	}
	// Only one of the two tables moved, so the published mean moves by
	// alpha*td/2.
	wantMean := snap.Tables[0][tr.State][tr.Action] + alpha*wantTD/2
	got := u.Snapshot().Tables[0][tr.State][tr.Action]
	if math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("snapshot mean = %v, want %v", got, wantMean)
	}
}

func TestTDUpdaterSeededDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	snap := updaterSnapshot(cfg, 4, 3)
	mk := func(seed uint64) *TDUpdater {
		u, err := NewTDUpdater(cfg, snap, seed, 0.3, 0.8)
		if err != nil {
			t.Fatalf("NewTDUpdater: %v", err)
		}
		return u
	}
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
	a, b := mk(11), mk(11)
	for _, tr := range trs {
		tda, erra := a.Apply(tr)
		tdb, errb := b.Apply(tr)
		if erra != nil || errb != nil {
			t.Fatalf("Apply: %v / %v", erra, errb)
		}
		if tda != tdb {
			t.Fatalf("same-seed TD divergence: %v != %v", tda, tdb)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for c := range sa.Tables {
		for s := range sa.Tables[c] {
			for i := range sa.Tables[c][s] {
				if sa.Tables[c][s][i] != sb.Tables[c][s][i] {
					t.Fatalf("same-seed table divergence at [%d][%d][%d]", c, s, i)
				}
			}
		}
	}
}

// TestTDUpdaterRejectsWithoutSideEffects pins the property the seeded
// replay mode depends on: a rejected transition must not advance the coin
// stream, the applied counter, or the tables — an updater that saw (and
// rejected) garbage stays bit-identical to one that never saw it.
func TestTDUpdaterRejectsWithoutSideEffects(t *testing.T) {
	cfg := DefaultConfig()
	snap := updaterSnapshot(cfg, 4)
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

	poisoned, _ := NewTDUpdater(cfg, snap, 5, 0.4, 0.7)
	clean, _ := NewTDUpdater(cfg, snap, 5, 0.4, 0.7)
	for i, tr := range good {
		for _, b := range bad {
			if _, err := poisoned.Apply(b); err == nil {
				t.Fatalf("Apply(%+v) accepted", b)
			}
		}
		tdp, err := poisoned.Apply(tr)
		if err != nil {
			t.Fatalf("Apply good %d: %v", i, err)
		}
		tdc, err := clean.Apply(tr)
		if err != nil {
			t.Fatalf("Apply good %d: %v", i, err)
		}
		if tdp != tdc {
			t.Fatalf("good apply %d diverged after rejected garbage: %v != %v", i, tdp, tdc)
		}
	}
	if poisoned.Applied() != uint64(len(good)) {
		t.Fatalf("Applied = %d, want %d", poisoned.Applied(), len(good))
	}
	sp, sc := poisoned.Snapshot(), clean.Snapshot()
	for s := range sp.Tables[0] {
		for a := range sp.Tables[0][s] {
			if sp.Tables[0][s][a] != sc.Tables[0][s][a] {
				t.Fatalf("tables diverged at [%d][%d]", s, a)
			}
		}
	}
	if _, err := poisoned.Apply(Transition{Reward: math.NaN()}); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("NaN reward error = %v, want ErrBadObservation", err)
	}
}

func TestTDUpdaterConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	snap := updaterSnapshot(cfg, 4)
	if _, err := NewTDUpdater(cfg, snap, 1, -0.1, 0.9); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewTDUpdater(cfg, snap, 1, 0.5, 1.0); err == nil {
		t.Fatal("gamma 1.0 accepted")
	}
	if _, err := NewTDUpdater(cfg, Snapshot{State: cfg.State}, 1, 0.5, 0.9); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	other := cfg
	other.State.LoadBins++
	if _, err := NewTDUpdater(other, snap, 1, 0.5, 0.9); err == nil {
		t.Fatal("state-config mismatch accepted")
	}
	// alpha/gamma 0 select the config values.
	u, err := NewTDUpdater(cfg, snap, 1, 0, 0)
	if err != nil {
		t.Fatalf("NewTDUpdater with config alpha/gamma: %v", err)
	}
	if u.alpha != cfg.Alpha || u.gamma != cfg.Gamma {
		t.Fatalf("alpha/gamma = %v/%v, want config %v/%v", u.alpha, u.gamma, cfg.Alpha, cfg.Gamma)
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

// TestTDUpdaterMeanIntoMatchesSnapshot pins in-place publication to the
// copying path it replaces: MeanInto, rewriting one recycled arena after
// each round of updates, leaves exactly NewFlatTables(Snapshot().Tables)
// behind, bit for bit, without allocating; and a mis-shaped arena panics
// before any write.
func TestTDUpdaterMeanIntoMatchesSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	snap := updaterSnapshot(cfg, 4, 3)
	u, err := NewTDUpdater(cfg, snap, 5, 0.3, 0.8)
	if err != nil {
		t.Fatalf("NewTDUpdater: %v", err)
	}
	arena := NewFlatTables(snap.Tables).NewLike()
	gen := rng.New(7)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			c := gen.Intn(2)
			actions := []int{4, 3}[c]
			states := cfg.State.States(actions)
			tr := Transition{Cluster: c, State: gen.Intn(states), Action: gen.Intn(actions),
				NextState: gen.Intn(states), Reward: gen.Float64()*2 - 1}
			if _, err := u.Apply(tr); err != nil {
				t.Fatalf("Apply: %v", err)
			}
		}
		u.MeanInto(arena)
		want := NewFlatTables(u.Snapshot().Tables)
		for i := range want.arena {
			if math.Float64bits(arena.arena[i]) != math.Float64bits(want.arena[i]) {
				t.Fatalf("round %d: arena slot %d = %v, snapshot path has %v", round, i, arena.arena[i], want.arena[i])
			}
		}
	}
	if !snapshotsBitEqual(Snapshot{State: cfg.State, Tables: arena.Tables()}, u.Snapshot()) {
		t.Error("Tables() of the published arena differs from Snapshot()")
	}
	if n := testing.AllocsPerRun(20, func() { u.MeanInto(arena) }); n != 0 {
		t.Errorf("MeanInto allocates %v times per call, want 0", n)
	}

	other := NewFlatTables(updaterSnapshot(cfg, 4).Tables)
	before := append([]float64(nil), other.arena...)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MeanInto accepted an arena of a different shape")
			}
		}()
		u.MeanInto(other)
	}()
	for i, v := range other.arena {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("mis-shaped MeanInto wrote slot %d before panicking", i)
		}
	}
}
