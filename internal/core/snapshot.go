package core

import "fmt"

// Snapshot is a policy's Q-tables in nested form, one [state][action]
// table per cluster, plus the state configuration they were trained with:
// the form for code that builds or edits tables by row. The checkpoint
// codec, serving and policy hydration work on the arena (FlatTables);
// NewFlatTables and FlatTables.Tables convert between the two.
type Snapshot struct {
	State  StateConfig
	Tables [][][]float64 // [cluster][state][action]
}

// Snapshot captures the current greedy tables in nested form. It errors
// before the first Decide, when no agents exist yet.
func (p *Policy) Snapshot() (Snapshot, error) {
	st, f, err := p.Tables()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{State: st, Tables: f.Tables()}, nil
}

// Tables returns the state configuration the policy encodes states with
// and its current greedy tables (for Double Q-learning, the mean of the
// two tables: the policy the agent follows) in a fresh arena, laid out as
// a checkpoint stores them: the pair WriteCheckpoint and PolicyFromTables
// take. It errors before the first Decide, when no agents exist yet, and
// for a cluster wider than MaxFlatActions.
func (p *Policy) Tables() (StateConfig, *FlatTables, error) {
	if len(p.agents) == 0 {
		return StateConfig{}, nil, fmt.Errorf("core: policy has no agents yet (run at least one Decide)")
	}
	f := &FlatTables{off: make([]int, len(p.agents)), width: make([]int, len(p.agents))}
	n := 0
	for c, a := range p.agents {
		if a.numLevels > MaxFlatActions {
			return StateConfig{}, nil, fmt.Errorf("core: cluster %d has %d actions, the arena packs at most %d", c, a.numLevels, MaxFlatActions)
		}
		f.off[c], f.width[c] = n, a.numLevels
		n += len(a.q)
	}
	f.arena = make([]float64, n)
	p.TablesInto(f)
	return p.cfg.State, f, nil
}

// PolicyFromTables builds a frozen policy from f, tables encoded under the
// state configuration st (a checkpoint's recorded one, or Tables'): one
// agent per cluster (a cluster's row width is its OPP count), its table
// copied from the cluster's arena window and learning off. st must be
// cfg.State — two configurations can give a table the same state count
// and still encode states differently — and each window must hold its
// state count. Its agents hold no trend or exploration state from any
// earlier run, so it decides exactly as a fresh deployment of the tables
// does — the one way to load, evaluate or replay a saved policy.
func PolicyFromTables(cfg Config, st StateConfig, f *FlatTables) (*Policy, error) {
	p, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if st != cfg.State {
		return nil, fmt.Errorf("core: tables encoded under state config %+v != policy %+v", st, cfg.State)
	}
	if f == nil || len(f.off) == 0 {
		return nil, fmt.Errorf("core: no tables to load")
	}
	p.agents = make([]*Agent, len(f.off))
	for c, width := range f.width {
		a, err := NewAgent(cfg, width, uint64(c))
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", c, err)
		}
		win := f.window(c)
		if len(win) != len(a.q) {
			return nil, fmt.Errorf("core: cluster %d table has %d states, config %+v needs %d for %d actions",
				c, len(win)/width, cfg.State, a.NumStates(), width)
		}
		copy(a.q, win)
		if a.q2 != nil {
			copy(a.q2, win)
		}
		a.SetLearning(false)
		p.agents[c] = a
	}
	return p, nil
}
