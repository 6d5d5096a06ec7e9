// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §5) from the simulator,
// the baseline governors, the RL policy, and the hardware model.
//
// Each experiment is a pure function returning a result struct with a
// WriteText method; cmd/pmbench selects experiments by id and prints them,
// and bench_test.go wraps each in a testing.B benchmark so
// `go test -bench` regenerates the whole evaluation.
package bench

import (
	"fmt"
	"io"
	"math"

	"rlpm/internal/bench/engine"
	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/governor"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// Options parameterizes a full evaluation run.
type Options struct {
	// PeriodS is the DVFS control period (default 50 ms).
	PeriodS float64
	// DurationS is the evaluated time per scenario (default 120 s).
	DurationS float64
	// TrainEpisodes is how many episodes the RL policy trains before its
	// frozen evaluation (default 120).
	TrainEpisodes int
	// Seed drives scenarios and exploration (default 1).
	Seed uint64
	// Quick shrinks durations/episodes ~10× for smoke tests.
	Quick bool
	// Parallel is the worker count the experiment engine fans evaluation
	// cells out over. 0 (the default) selects runtime.GOMAXPROCS; 1 forces
	// the serial path. Results are byte-identical at any setting: every
	// cell owns its RNG streams and results merge in canonical order.
	Parallel int
}

// DefaultOptions returns the evaluation configuration used in
// EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{PeriodS: 0.05, DurationS: 120, TrainEpisodes: 120, Seed: 1}
}

func (o Options) normalized() Options {
	if o.PeriodS == 0 {
		o.PeriodS = 0.05
	}
	if o.DurationS == 0 {
		o.DurationS = 120
	}
	if o.TrainEpisodes == 0 {
		o.TrainEpisodes = 120
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Quick {
		o.DurationS = math.Max(o.PeriodS*40, o.DurationS/10)
		o.TrainEpisodes = maxInt(3, o.TrainEpisodes/10)
		// Clear the flag so normalization is idempotent — experiments
		// that compose other experiments re-normalize their options.
		o.Quick = false
	}
	return o
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (o Options) simConfig() sim.Config {
	return sim.Config{PeriodS: o.PeriodS, DurationS: o.DurationS, Seed: o.Seed}
}

// newChip builds the default evaluation chip.
func newChip() (*soc.Chip, error) {
	return soc.NewChip(soc.DefaultChipSpec())
}

// newScenario builds scenario name for the default two-cluster chip.
func newScenario(name string, seed uint64) (workload.Scenario, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.New(spec, 2, seed)
}

// trainedPolicy trains a fresh RL policy on scenario name and freezes it.
func trainedPolicy(name string, opt Options, cfg core.Config) (*core.Policy, error) {
	chip, err := newChip()
	if err != nil {
		return nil, err
	}
	scen, err := newScenario(name, opt.Seed)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := core.Train(chip, scen, p, opt.simConfig(), opt.TrainEpisodes); err != nil {
		return nil, err
	}
	p.SetLearning(false)
	return p, nil
}

// evalGovernor runs one (scenario, governor) cell.
func evalGovernor(name string, gov sim.Governor, opt Options) (sim.Result, error) {
	chip, err := newChip()
	if err != nil {
		return sim.Result{}, err
	}
	scen, err := newScenario(name, opt.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(chip, scen, gov, opt.simConfig())
}

// improvementPct is the capped relative improvement of proposed over
// baseline in percent. Baselines whose energy-per-QoS diverged (no useful
// QoS at all) count as the 100% cap.
func improvementPct(baseline, proposed float64) float64 {
	if math.IsInf(baseline, 1) {
		return 100
	}
	if baseline <= 0 {
		return 0
	}
	imp := 100 * (baseline - proposed) / baseline
	if imp > 100 {
		imp = 100
	}
	return imp
}

// fmtEQ formats an energy-per-QoS cell.
func fmtEQ(v float64) string {
	if math.IsInf(v, 1) {
		return "    inf"
	}
	return fmt.Sprintf("%7.4f", v)
}

// scenarioNames returns the evaluation scenarios in table order.
func scenarioNames() []string { return workload.Names() }

// simRun aliases sim.Run for the experiment files.
var simRun = sim.Run

// coreConfig is the RL configuration used across all experiments.
func coreConfig() core.Config { return core.DefaultConfig() }

// hwFromPolicy deploys a trained software policy onto the modeled
// accelerator with the default bus and banking.
func hwFromPolicy(p *core.Policy) sim.Governor {
	g, err := hwpolicy.FromPolicy(p, coreConfig(), bus.DefaultConfig(), hwpolicy.DefaultParams().Banks)
	if err != nil {
		panic(err) // callers pass trained policies; shapes always match
	}
	return g
}

// GovernorNames lists every governor NewGovernor builds: the six
// baselines, schedutil, the RL policy, and the RL policy deployed on the
// modeled accelerator.
func GovernorNames() []string {
	return append(governor.BaselineNames(), "schedutil", "rl-policy", "rl-policy-hw")
}

// NewGovernor builds the governor called name for a run on chip. The RL
// governors first train a fresh policy for train episodes of scen under
// trainCfg, and rl-policy-hw then deploys it onto the modeled accelerator;
// with no training rl-policy-hw starts from a blank accelerator. Any other
// name is a governor.New baseline.
func NewGovernor(name string, chip *soc.Chip, scen workload.Scenario, trainCfg sim.Config, train int) (sim.Governor, error) {
	if name != "rl-policy" && name != "rl-policy-hw" {
		return governor.New(name)
	}
	if name == "rl-policy-hw" && train <= 0 {
		return hwpolicy.NewGovernor(coreConfig(), bus.DefaultConfig(), hwpolicy.DefaultParams().Banks)
	}
	p, err := core.NewPolicy(coreConfig())
	if err != nil {
		return nil, err
	}
	if train > 0 {
		if _, err := core.Train(chip, scen, p, trainCfg, train); err != nil {
			return nil, err
		}
		p.SetLearning(false)
	}
	if name == "rl-policy-hw" {
		return hwpolicy.FromPolicy(p, coreConfig(), bus.DefaultConfig(), hwpolicy.DefaultParams().Banks)
	}
	return p, nil
}

// mapCells fans n evaluation cells out over opt.Parallel workers via the
// experiment engine and returns the per-cell results in canonical index
// order. Each cell must construct its own chip/scenario/governor — the
// engine guarantees ordered merge, the cell guarantees isolation.
func mapCells[T any](opt Options, n int, fn func(int) (T, error)) ([]T, error) {
	return engine.Map(opt.Parallel, n, fn)
}

// writeRule draws a separator line.
func writeRule(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
