package core

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot is a serializable image of a trained policy: one Q-table per
// cluster plus the state configuration it was trained with, so a loader
// can reject incompatible shapes.
type Snapshot struct {
	State  StateConfig
	Tables [][][]float64 // [cluster][state][action]
}

// Snapshot captures the current tables. It errors before the first Decide,
// when no agents exist yet.
func (p *Policy) Snapshot() (Snapshot, error) {
	if len(p.agents) == 0 {
		return Snapshot{}, fmt.Errorf("core: policy has no agents yet (run at least one Decide)")
	}
	s := Snapshot{State: p.cfg.State}
	for _, a := range p.agents {
		s.Tables = append(s.Tables, a.Table())
	}
	return s, nil
}

// PolicyFromSnapshot builds a frozen policy from snap: one agent per table
// (a table's row length is its cluster's OPP count), the table loaded and
// learning off. Its agents hold no trend or exploration state from any
// earlier run, so it decides exactly as a fresh deployment of the
// snapshotted tables does — the one way to load, evaluate or replay a
// saved policy.
func PolicyFromSnapshot(cfg Config, snap Snapshot) (*Policy, error) {
	p, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if snap.State != cfg.State {
		return nil, fmt.Errorf("core: snapshot state config %+v != policy %+v", snap.State, cfg.State)
	}
	if len(snap.Tables) == 0 {
		return nil, fmt.Errorf("core: snapshot has no tables")
	}
	p.agents = make([]*Agent, len(snap.Tables))
	for i, t := range snap.Tables {
		if len(t) == 0 {
			return nil, fmt.Errorf("core: cluster %d: empty table", i)
		}
		a, err := NewAgent(cfg, len(t[0]), uint64(i))
		if err == nil {
			err = a.LoadTable(t)
		}
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", i, err)
		}
		a.SetLearning(false)
		p.agents[i] = a
	}
	return p, nil
}

// Encode serializes the snapshot to w.
func (s Snapshot) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot deserializes a snapshot written by WriteTo.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return s, nil
}
