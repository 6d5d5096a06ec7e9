// Package core implements the paper's contribution: a Q-learning-based
// power management policy for mobile MPSoCs.
//
// The policy observes each cluster's behaviour once per DVFS control
// period, encodes it into a discrete state (utilization band × QoS band ×
// demand trend × current OPP level), and learns a tabular action-value
// function over OPP levels with an ε-greedy exploration schedule. The
// reward is the negative energy-per-QoS of the period with an additional
// penalty for QoS violations, so the learned policy minimizes exactly the
// metric the paper reports while preserving user satisfaction.
//
// Tabular Q-learning (rather than a function approximator) is what the
// paper implements in hardware: the Q-table maps directly onto BRAM and the
// update onto a single MAC datapath. internal/hwpolicy models that
// hardware and is kept bit-compatible with the fixed-point variant of this
// package's update rule.
package core

import (
	"errors"
	"fmt"
	"math"

	"rlpm/internal/rng"
	"rlpm/internal/sim"
)

// ErrBadObservation marks an observation whose numeric fields cannot be
// discretized meaningfully (NaN, ±Inf, or negative ratios). The bin
// functions would otherwise silently map such values onto a valid bin —
// NaN fails every `<` comparison, so a poisoned demand ratio lands in the
// top load band and a poisoned QoS in the bottom band — which is merely
// misleading for a frozen policy but corrupts the table once observations
// drive live Q-updates. Callers on learning paths must validate first.
var ErrBadObservation = errors.New("core: bad observation")

// badRatio reports whether v is unusable as a nonnegative ratio.
func badRatio(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

// ValidateObservation rejects observations whose demand or QoS fields are
// NaN, infinite, or negative, returning an error wrapping
// ErrBadObservation that names the offending field. Utilization is checked
// on the same terms; Level/NumLevels range checks stay with the callers
// that know the cluster shape.
func (c Config) ValidateObservation(o sim.Observation) error {
	switch {
	case badRatio(o.DemandRatio):
		return fmt.Errorf("%w: demand ratio %v", ErrBadObservation, o.DemandRatio)
	case badRatio(o.QoS):
		return fmt.Errorf("%w: qos %v", ErrBadObservation, o.QoS)
	case badRatio(o.ClusterQoS):
		return fmt.Errorf("%w: cluster qos %v", ErrBadObservation, o.ClusterQoS)
	case badRatio(o.Utilization):
		return fmt.Errorf("%w: utilization %v", ErrBadObservation, o.Utilization)
	}
	return nil
}

// StateConfig controls discretization of the observation space.
type StateConfig struct {
	// LoadBins discretizes the demand ratio (required speedup at the
	// current OPP) over [0, MaxLoadRatio).
	LoadBins int
	// QoSBins discretizes the period's service ratio. With the default 4
	// bins the edges are {0.90, 0.95, 0.99} — concentrated near 1, where
	// all the decision-relevant QoS variation lives; other bin counts use
	// uniform edges.
	QoSBins int
	// TrendBins encodes the demand trend: 3 = falling/flat/rising,
	// 1 = disabled.
	TrendBins int
}

// MaxLoadRatio is the clip point of the demand-ratio discretization: a
// cluster needing more than 2× its current speed saturates the top band.
const MaxLoadRatio = 2.0

// DefaultStateConfig returns the discretization used in the evaluation:
// 8 load bands, 4 QoS bands, 3 trend bands. With a 9-level OPP table this
// is 864 states — a Q-table that comfortably fits FPGA BRAM.
func DefaultStateConfig() StateConfig {
	return StateConfig{LoadBins: 8, QoSBins: 4, TrendBins: 3}
}

// Validate checks the state configuration.
func (s StateConfig) Validate() error {
	if s.LoadBins < 1 || s.QoSBins < 1 || s.TrendBins < 1 {
		return fmt.Errorf("core: state bins must be >= 1, got %+v", s)
	}
	if s.TrendBins != 1 && s.TrendBins != 3 {
		return fmt.Errorf("core: trend bins must be 1 (disabled) or 3, got %d", s.TrendBins)
	}
	return nil
}

// States returns the number of discrete states for a cluster with
// numLevels OPPs.
func (s StateConfig) States(numLevels int) int {
	return s.LoadBins * s.QoSBins * s.TrendBins * numLevels
}

// Config parameterizes the policy.
type Config struct {
	State StateConfig
	// Algorithm selects the TD update rule; empty means QLearning (the
	// paper's choice, and the one the hardware model implements).
	Algorithm Algorithm
	// Alpha is the learning rate in (0,1].
	Alpha float64
	// Gamma is the discount factor in [0,1).
	Gamma float64
	// EpsilonStart/EpsilonMin/EpsilonDecay define the exploration
	// schedule: ε starts at EpsilonStart and is multiplied by EpsilonDecay
	// after every decision until it reaches EpsilonMin.
	EpsilonStart float64
	EpsilonMin   float64
	EpsilonDecay float64
	// LambdaViolation is the reward penalty applied when a critical
	// period misses its QoS threshold.
	LambdaViolation float64
	// LambdaQoS weights the (1−QoS) shaping term that keeps service up
	// even on non-critical periods.
	LambdaQoS float64
	// QoSThreshold is the violation boundary used inside the reward.
	QoSThreshold float64
	// EnergyScaleJ normalizes period energy in the reward; it should be
	// on the order of the chip's typical per-period energy so reward
	// magnitudes stay O(1) (important for the fixed-point table).
	EnergyScaleJ float64
	// Seed drives exploration.
	Seed uint64
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		State:           DefaultStateConfig(),
		Alpha:           0.20,
		Gamma:           0.85,
		EpsilonStart:    0.40,
		EpsilonMin:      0.02,
		EpsilonDecay:    0.9995,
		LambdaViolation: 5.0,
		LambdaQoS:       2.0,
		QoSThreshold:    0.95,
		EnergyScaleJ:    0.10, // ≈ one cluster's energy in a mid-load 50 ms period
		Seed:            1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.State.Validate(); err != nil {
		return err
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v out of (0,1]", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma %v out of [0,1)", c.Gamma)
	}
	if c.EpsilonStart < 0 || c.EpsilonStart > 1 || c.EpsilonMin < 0 || c.EpsilonMin > c.EpsilonStart {
		return fmt.Errorf("core: bad epsilon schedule start=%v min=%v", c.EpsilonStart, c.EpsilonMin)
	}
	if c.EpsilonDecay <= 0 || c.EpsilonDecay > 1 {
		return fmt.Errorf("core: epsilon decay %v out of (0,1]", c.EpsilonDecay)
	}
	if c.LambdaViolation < 0 || c.LambdaQoS < 0 {
		return fmt.Errorf("core: negative reward weights")
	}
	if c.QoSThreshold <= 0 || c.QoSThreshold > 1 {
		return fmt.Errorf("core: QoS threshold %v out of (0,1]", c.QoSThreshold)
	}
	if c.EnergyScaleJ <= 0 {
		return fmt.Errorf("core: energy scale must be positive")
	}
	if err := c.Algorithm.Validate(); err != nil {
		return err
	}
	return nil
}

// Reward computes the per-period reward from an observation. Exposed so
// the hardware model and the ablation benches use the identical function.
// Both the energy term and the QoS terms use the cluster's own attributed
// quantities so each agent is rewarded only for decisions it controls.
func (c Config) Reward(o sim.Observation) float64 {
	r := -(o.ClusterEnergyJ / c.EnergyScaleJ)
	r -= c.LambdaQoS * (1 - o.ClusterQoS)
	if o.Critical && o.ClusterQoS < c.QoSThreshold {
		r -= c.LambdaViolation
	}
	return r
}

// EncodeState maps an observation (plus the previous demand ratio, for the
// trend band) to a state index in [0, States(numLevels)).
func (c Config) EncodeState(o sim.Observation, prevDemandRatio float64) int {
	s := c.State
	u := loadBin(o.DemandRatio, s.LoadBins)
	q := qosBin(o.ClusterQoS, s.QoSBins)
	t := 0
	if s.TrendBins == 3 {
		const deadband = 0.05
		switch {
		case o.DemandRatio > prevDemandRatio+deadband:
			t = 2
		case o.DemandRatio < prevDemandRatio-deadband:
			t = 0
		default:
			t = 1
		}
	}
	lvl := o.Level
	if lvl >= o.NumLevels {
		lvl = o.NumLevels - 1
	}
	return ((u*s.QoSBins+q)*s.TrendBins+t)*o.NumLevels + lvl
}

// binOf discretizes v in [0,1] into bins uniform bands.
func binOf(v float64, bins int) int {
	if v < 0 {
		v = 0
	}
	if v >= 1 {
		return bins - 1
	}
	return int(v * float64(bins))
}

// loadBinEdges8 is the non-uniform discretization of the demand ratio for
// the default 8 load bins: fine resolution around 1.0, where the
// just-enough frequency decision lives.
var loadBinEdges8 = [7]float64{0.25, 0.50, 0.70, 0.85, 0.95, 1.05, 1.25}

// loadBin discretizes the demand ratio over [0, MaxLoadRatio). The default
// 8-bin layout uses loadBinEdges8; other bin counts use uniform bands.
func loadBin(ratio float64, bins int) int {
	if bins == 8 {
		for i, e := range loadBinEdges8 {
			if ratio < e {
				return i
			}
		}
		return 7
	}
	return binOf(ratio/MaxLoadRatio, bins)
}

// qosBin discretizes a service ratio. All decision-relevant QoS variation
// is near 1, so the default 4-bin layout uses edges {0.90, 0.95, 0.99};
// other bin counts fall back to uniform bands.
func qosBin(q float64, bins int) int {
	if bins == 4 {
		switch {
		case q >= 0.99:
			return 3
		case q >= 0.95:
			return 2
		case q >= 0.90:
			return 1
		default:
			return 0
		}
	}
	return binOf(q, bins)
}

// Agent is the per-cluster Q-learning agent.
type Agent struct {
	cfg       Config
	numLevels int
	stream    uint64
	algo      Algorithm
	q         [][]float64 // q[state][action]
	q2        [][]float64 // second table (Double Q-learning only)
	sumBuf    []float64   // scratch row for Double Q action selection
	eps       float64
	r         *rng.Rand
	learning  bool

	prevDemandRatio float64
	lastState       int
	lastAction      int
	hasLast         bool

	// lastTD exposes learning progress for Fig. 2.
	lastTD float64
}

// NewAgent creates an agent for a cluster with numLevels OPPs.
func NewAgent(cfg Config, numLevels int, stream uint64) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numLevels < 1 {
		return nil, fmt.Errorf("core: agent needs at least one OPP level")
	}
	a := &Agent{cfg: cfg, numLevels: numLevels, stream: stream, algo: cfg.Algorithm.normalize(), learning: true}
	a.q = make([][]float64, cfg.State.States(numLevels))
	for i := range a.q {
		a.q[i] = make([]float64, numLevels)
	}
	if a.algo == DoubleQ {
		a.q2 = make([][]float64, len(a.q))
		for i := range a.q2 {
			a.q2[i] = make([]float64, numLevels)
		}
		a.sumBuf = make([]float64, numLevels)
	}
	a.eps = cfg.EpsilonStart
	a.r = rng.NewStream(cfg.Seed, stream)
	return a, nil
}

// NumStates returns the Q-table's state count.
func (a *Agent) NumStates() int { return len(a.q) }

// NumActions returns the Q-table's action count.
func (a *Agent) NumActions() int { return a.numLevels }

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.eps }

// LastTD returns the magnitude of the most recent temporal-difference
// error, a convergence signal.
func (a *Agent) LastTD() float64 { return a.lastTD }

// SetLearning enables or disables updates and exploration. With learning
// off the agent acts greedily on its frozen table — the deployment mode.
func (a *Agent) SetLearning(on bool) { a.learning = on }

// BoostExploration raises the exploration rate back to eps (without
// touching the learned table) — used when the workload distribution
// shifts and the decayed ε would adapt too slowly. Values at or below the
// current ε are ignored.
func (a *Agent) BoostExploration(eps float64) {
	if eps > a.eps {
		if eps > a.cfg.EpsilonStart {
			eps = a.cfg.EpsilonStart
		}
		a.eps = eps
	}
}

// Learning reports whether updates are enabled.
func (a *Agent) Learning() bool { return a.learning }

// Step consumes the observation that resulted from the agent's previous
// action, performs the TD update of the configured algorithm, and returns
// the next action (OPP level).
func (a *Agent) Step(o sim.Observation) int {
	if o.NumLevels != a.numLevels {
		panic(fmt.Sprintf("core: observation has %d levels, agent built for %d", o.NumLevels, a.numLevels))
	}
	state := a.cfg.EncodeState(o, a.prevDemandRatio)
	a.prevDemandRatio = o.DemandRatio

	reward := a.cfg.Reward(o)

	var action int
	switch a.algo {
	case SARSA:
		// On-policy: select the next action first, then bootstrap from
		// the value of that very action.
		action = a.selectAction(a.q[state])
		if a.learning && a.hasLast {
			target := reward + a.cfg.Gamma*a.q[state][action]
			a.update(a.q, target)
		}
	case DoubleQ:
		// Decorrelate selection and evaluation: a fair coin picks which
		// table to update; the other provides the bootstrap value.
		if a.learning && a.hasLast {
			upd, eval := a.q, a.q2
			if a.r.Bernoulli(0.5) {
				upd, eval = a.q2, a.q
			}
			idx, _ := argmaxF(upd[state])
			target := reward + a.cfg.Gamma*eval[state][idx]
			a.update(upd, target)
		}
		action = a.selectAction(a.sumRow(state))
	default: // QLearning
		_, best := argmaxF(a.q[state])
		if a.learning && a.hasLast {
			target := reward + a.cfg.Gamma*best
			a.update(a.q, target)
		}
		action = a.selectAction(a.q[state])
	}

	if a.learning {
		a.eps *= a.cfg.EpsilonDecay
		if a.eps < a.cfg.EpsilonMin {
			a.eps = a.cfg.EpsilonMin
		}
	}

	a.lastState, a.lastAction, a.hasLast = state, action, true
	return action
}

// selectAction is ε-greedy over the given action-value row.
func (a *Agent) selectAction(row []float64) int {
	if a.learning && a.r.Float64() < a.eps {
		return a.r.Intn(a.numLevels)
	}
	idx, _ := argmaxF(row)
	return idx
}

// update applies the TD step to table[lastState][lastAction] and records
// the TD-error magnitude.
func (a *Agent) update(table [][]float64, target float64) {
	td := target - table[a.lastState][a.lastAction]
	table[a.lastState][a.lastAction] += a.cfg.Alpha * td
	a.lastTD = math.Abs(td)
}

// sumRow returns q[state]+q2[state] for Double Q action selection, written
// into the agent's scratch row so the decision path stays allocation-free.
func (a *Agent) sumRow(state int) []float64 {
	row := a.sumBuf
	for i := range row {
		row[i] = a.q[state][i] + a.q2[state][i]
	}
	return row
}

// argmaxF returns the index and value of the maximum; ties break low, the
// same convention as the hardware comparator tree.
func argmaxF(vals []float64) (int, float64) {
	idx, best := 0, vals[0]
	for i := 1; i < len(vals); i++ {
		if vals[i] > best {
			idx, best = i, vals[i]
		}
	}
	return idx, best
}

// Table returns a deep copy of the Q-table. For Double Q-learning it
// returns the mean of the two tables — the greedy policy the agent
// actually follows.
func (a *Agent) Table() [][]float64 {
	out := make([][]float64, len(a.q))
	for i, row := range a.q {
		out[i] = append([]float64(nil), row...)
		if a.q2 != nil {
			for j := range out[i] {
				out[i][j] = (out[i][j] + a.q2[i][j]) / 2
			}
		}
	}
	return out
}

// LoadTable replaces the Q-table with t (deep-copied). The shape must
// match.
func (a *Agent) LoadTable(t [][]float64) error {
	if len(t) != len(a.q) {
		return fmt.Errorf("core: table has %d states, agent needs %d", len(t), len(a.q))
	}
	for i, row := range t {
		if len(row) != a.numLevels {
			return fmt.Errorf("core: table row %d has %d actions, agent needs %d", i, len(row), a.numLevels)
		}
	}
	for i, row := range t {
		copy(a.q[i], row)
		if a.q2 != nil {
			copy(a.q2[i], row)
		}
	}
	return nil
}

// Reset clears learned state and restarts the exploration schedule.
func (a *Agent) Reset() {
	for i := range a.q {
		for j := range a.q[i] {
			a.q[i][j] = 0
		}
		if a.q2 != nil {
			for j := range a.q2[i] {
				a.q2[i][j] = 0
			}
		}
	}
	a.eps = a.cfg.EpsilonStart
	a.r = rng.NewStream(a.cfg.Seed, a.stream)
	a.hasLast = false
	a.prevDemandRatio = 0
	a.lastTD = 0
}
