package core

import (
	"fmt"

	"rlpm/internal/sim"
)

// Policy is the chip-level power management policy: one Q-learning Agent
// per cluster behind the sim.Governor interface, so it drops into the same
// control loop as the baseline governors.
type Policy struct {
	cfg    Config
	agents []*Agent
}

var _ sim.InPlaceGovernor = (*Policy)(nil)

// NewPolicy creates a policy; agents are instantiated lazily on the first
// Decide call, when the cluster count and OPP table sizes are known.
func NewPolicy(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg}, nil
}

// MustPolicy is NewPolicy for static configurations; panics on error.
func MustPolicy(cfg Config) *Policy {
	p, err := NewPolicy(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Governor.
func (*Policy) Name() string { return "rl-policy" }

// Decide implements sim.Governor: one Q-learning step per cluster.
func (p *Policy) Decide(obs []sim.Observation) []int {
	return p.DecideInto(make([]int, len(obs)), obs)
}

// DecideInto implements sim.InPlaceGovernor: after the lazy first-call
// agent construction, the decision path performs no allocation.
func (p *Policy) DecideInto(dst []int, obs []sim.Observation) []int {
	if p.agents == nil {
		p.agents = make([]*Agent, len(obs))
		for i, o := range obs {
			a, err := NewAgent(p.cfg, o.NumLevels, uint64(i))
			if err != nil {
				panic(err) // cfg validated in NewPolicy; only bad NumLevels can land here
			}
			p.agents[i] = a
		}
	}
	if len(obs) != len(p.agents) {
		panic(fmt.Sprintf("core: policy built for %d clusters, got %d observations", len(p.agents), len(obs)))
	}
	dst = sim.FitLevels(dst, len(obs))
	for i, o := range obs {
		dst[i] = p.agents[i].Step(o)
	}
	return dst
}

// Reset implements sim.Governor: clears all learned state.
func (p *Policy) Reset() {
	for _, a := range p.agents {
		a.Reset()
	}
}

// SetLearning toggles learning/exploration on every agent.
func (p *Policy) SetLearning(on bool) {
	for _, a := range p.agents {
		a.SetLearning(on)
	}
}

// BoostExploration raises every agent's exploration rate to eps (capped at
// the configured start rate) without discarding learned values — the knob
// for adapting to a workload shift.
func (p *Policy) BoostExploration(eps float64) {
	for _, a := range p.agents {
		a.BoostExploration(eps)
	}
}

// Learn routes t to its cluster's agent (Agent.Learn) and returns the
// signed TD error. A cluster the policy has no agent for is refused before
// anything moves.
func (p *Policy) Learn(t Transition) (float64, error) {
	if t.Cluster < 0 || t.Cluster >= len(p.agents) {
		return 0, fmt.Errorf("core: transition cluster %d out of [0,%d)", t.Cluster, len(p.agents))
	}
	return p.agents[t.Cluster].Learn(t)
}

// TablesInto writes every agent's greedy table into f, so f holds exactly
// what Tables returns, without allocating. f must have the policy's shape
// (an arena the policy was loaded from, or a NewLike copy of one); a
// mismatch is a caller bug and panics before any write. The caller must
// own f: no reader may hold it during the write.
func (p *Policy) TablesInto(f *FlatTables) {
	n := 0
	for c, a := range p.agents {
		if c >= len(f.off) || f.off[c] != n || f.width[c] != a.numLevels {
			panic(fmt.Sprintf("core: TablesInto: arena cluster %d does not match the policy's shape", c))
		}
		n += len(a.q)
	}
	if len(f.off) != len(p.agents) || len(f.arena) != n {
		panic("core: TablesInto: arena size does not match the policy's shape")
	}
	for c, a := range p.agents {
		a.tableInto(f.arena[f.off[c] : f.off[c]+len(a.q)])
	}
}

// MeanEpsilon returns the average exploration rate across agents, a
// convergence indicator for Fig. 2.
func (p *Policy) MeanEpsilon() float64 {
	if len(p.agents) == 0 {
		return p.cfg.EpsilonStart
	}
	var sum float64
	for _, a := range p.agents {
		sum += a.Epsilon()
	}
	return sum / float64(len(p.agents))
}

// MeanTD returns the average last TD-error magnitude across agents.
func (p *Policy) MeanTD() float64 {
	if len(p.agents) == 0 {
		return 0
	}
	var sum float64
	for _, a := range p.agents {
		sum += a.LastTD()
	}
	return sum / float64(len(p.agents))
}
