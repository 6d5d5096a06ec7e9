package bench

import (
	"fmt"
	"io"

	"rlpm/internal/core"
	"rlpm/internal/governor"
	"rlpm/internal/sim"
)

// AblationStateBins (A1) sweeps the state-space granularity: how many
// load/QoS/trend bands the policy discretizes into, against the final
// energy-per-QoS on gaming+video. Shows the design point DESIGN.md calls
// out (8×4×3) sits at the knee: coarser states underfit, much finer states
// learn too slowly for the training budget.
type AblationStateBins struct {
	Rows []StateBinsRow
}

// StateBinsRow is one sweep point.
type StateBinsRow struct {
	Load, QoS, Trend int
	States           int // for a 9-level cluster
	GamingEQ         float64
	VideoEQ          float64
}

// RunAblationStateBins executes the sweep.
func RunAblationStateBins(opt Options) (*AblationStateBins, error) {
	opt = opt.normalized()
	configs := []core.StateConfig{
		{LoadBins: 2, QoSBins: 2, TrendBins: 1},
		{LoadBins: 4, QoSBins: 2, TrendBins: 1},
		{LoadBins: 4, QoSBins: 4, TrendBins: 3},
		{LoadBins: 8, QoSBins: 4, TrendBins: 3}, // the design point
		{LoadBins: 16, QoSBins: 8, TrendBins: 3},
	}
	scenarios := []string{"gaming", "video"}
	// One engine cell per (state config, scenario): each trains its own
	// policy and evaluates it frozen.
	cells, err := mapCells(opt, len(configs)*len(scenarios), func(i int) (float64, error) {
		sc := configs[i/len(scenarios)]
		scenario := scenarios[i%len(scenarios)]
		cfg := coreConfig()
		cfg.State = sc
		p, err := trainedPolicy(scenario, opt, cfg)
		if err != nil {
			return 0, fmt.Errorf("bench: A1 %v on %s: %w", sc, scenario, err)
		}
		res, err := evalGovernor(scenario, p, opt)
		if err != nil {
			return 0, err
		}
		return res.QoS.EnergyPerQoS, nil
	})
	if err != nil {
		return nil, err
	}
	out := &AblationStateBins{}
	for ci, sc := range configs {
		out.Rows = append(out.Rows, StateBinsRow{
			Load: sc.LoadBins, QoS: sc.QoSBins, Trend: sc.TrendBins, States: sc.States(9),
			GamingEQ: cells[ci*len(scenarios)],
			VideoEQ:  cells[ci*len(scenarios)+1],
		})
	}
	return out, nil
}

// WriteText renders the sweep.
func (a *AblationStateBins) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Ablation A1: state-space granularity vs energy per QoS")
	writeRule(w, 64)
	fmt.Fprintf(w, "%6s %5s %6s %8s %12s %12s\n", "load", "qos", "trend", "states", "gaming", "video")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%6d %5d %6d %8d %12.4f %12.4f\n", r.Load, r.QoS, r.Trend, r.States, r.GamingEQ, r.VideoEQ)
	}
}

// AblationLambda (A3) sweeps the violation penalty λ, exposing the
// energy/QoS trade-off dial: λ→0 collapses toward powersave-like
// violations; large λ over-provisions toward performance-like energy.
type AblationLambda struct {
	Rows []LambdaRow
}

// LambdaRow is one sweep point on gaming.
type LambdaRow struct {
	Lambda        float64
	EnergyPerQoS  float64
	EnergyJ       float64
	ViolationRate float64
}

// RunAblationLambda executes the sweep, one engine cell per λ.
func RunAblationLambda(opt Options) (*AblationLambda, error) {
	opt = opt.normalized()
	lambdas := []float64{0, 0.5, 1.5, 3.0, 6.0, 12.0}
	rows, err := mapCells(opt, len(lambdas), func(i int) (LambdaRow, error) {
		lambda := lambdas[i]
		cfg := coreConfig()
		cfg.LambdaViolation = lambda
		p, err := trainedPolicy("gaming", opt, cfg)
		if err != nil {
			return LambdaRow{}, fmt.Errorf("bench: A3 λ=%v: %w", lambda, err)
		}
		res, err := evalGovernor("gaming", p, opt)
		if err != nil {
			return LambdaRow{}, err
		}
		return LambdaRow{
			Lambda:        lambda,
			EnergyPerQoS:  res.QoS.EnergyPerQoS,
			EnergyJ:       res.QoS.TotalEnergyJ,
			ViolationRate: res.QoS.ViolationRate,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationLambda{Rows: rows}, nil
}

// WriteText renders the sweep.
func (a *AblationLambda) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Ablation A3: violation penalty λ vs energy/QoS trade-off (gaming)")
	writeRule(w, 56)
	fmt.Fprintf(w, "%8s %14s %10s %10s\n", "lambda", "energy/QoS", "energy(J)", "violRate")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%8.1f %14.4f %10.1f %10.4f\n", r.Lambda, r.EnergyPerQoS, r.EnergyJ, r.ViolationRate)
	}
}

// OracleStatic searches all pinned per-cluster OPP pairs and reports the
// best static configuration per scenario — a lower-bound reference showing
// how much headroom remains beyond any static policy and how close the RL
// policy gets.
type OracleStatic struct {
	Rows []OracleRow
}

// OracleRow is one scenario's oracle result.
type OracleRow struct {
	Scenario     string
	LittleLevel  int
	BigLevel     int
	EnergyPerQoS float64
	RLEnergyEQ   float64 // the RL policy on the same scenario
	GapPct       float64 // how far RL is above the static oracle
}

// RunOracleStatic executes the search.
func RunOracleStatic(opt Options) (*OracleStatic, error) {
	opt = opt.normalized()
	chipProbe, err := newChip()
	if err != nil {
		return nil, err
	}
	littleLevels := chipProbe.Cluster(0).NumLevels()
	bigLevels := chipProbe.Cluster(1).NumLevels()

	// Flatten to one engine cell per (scenario, pin) plus one RL cell per
	// scenario; the best pin is selected during the ordered merge, walking
	// pins in the same (little-major, big-minor) order as the serial
	// search so ties resolve identically.
	names := scenarioNames()
	pins := littleLevels * bigLevels
	perScen := pins + 1
	cells, err := mapCells(opt, len(names)*perScen, func(i int) (float64, error) {
		sc := names[i/perScen]
		ci := i % perScen
		if ci == pins {
			p, err := trainedPolicy(sc, opt, coreConfig())
			if err != nil {
				return 0, err
			}
			res, err := evalGovernor(sc, p, opt)
			if err != nil {
				return 0, err
			}
			return res.QoS.EnergyPerQoS, nil
		}
		g, err := governor.NewFixed([]int{ci / bigLevels, ci % bigLevels})
		if err != nil {
			return 0, err
		}
		res, err := evalGovernor(sc, g, opt)
		if err != nil {
			return 0, err
		}
		return res.QoS.EnergyPerQoS, nil
	})
	if err != nil {
		return nil, err
	}

	out := &OracleStatic{}
	for si, sc := range names {
		best := OracleRow{Scenario: sc, EnergyPerQoS: inf()}
		for l := 0; l < littleLevels; l++ {
			for b := 0; b < bigLevels; b++ {
				eq := cells[si*perScen+l*bigLevels+b]
				if eq < best.EnergyPerQoS {
					best.LittleLevel, best.BigLevel = l, b
					best.EnergyPerQoS = eq
				}
			}
		}
		best.RLEnergyEQ = cells[si*perScen+pins]
		if best.EnergyPerQoS > 0 {
			best.GapPct = 100 * (best.RLEnergyEQ - best.EnergyPerQoS) / best.EnergyPerQoS
		}
		out.Rows = append(out.Rows, best)
	}
	return out, nil
}

// WriteText renders the oracle table.
func (o *OracleStatic) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Oracle: best static per-cluster OPP pin vs the RL policy")
	writeRule(w, 72)
	fmt.Fprintf(w, "%-10s %7s %6s %14s %14s %8s\n", "scenario", "little", "big", "oracle E/QoS", "RL E/QoS", "gap")
	for _, r := range o.Rows {
		fmt.Fprintf(w, "%-10s %7d %6d %14.4f %14.4f %7.1f%%\n",
			r.Scenario, r.LittleLevel, r.BigLevel, r.EnergyPerQoS, r.RLEnergyEQ, r.GapPct)
	}
}

func inf() float64 { return 1e308 }

// AblationPrecision (A2) compares the float64 software policy against its
// Q16.16 hardware deployment (and a deliberately crippled Q4.4-style
// quantization) on video — quantization of the Q-table must not change
// the policy's quality.
type AblationPrecision struct {
	Rows []PrecisionRow
}

// PrecisionRow is one precision point.
type PrecisionRow struct {
	Name         string
	EnergyPerQoS float64
	MeanQoS      float64
}

// RunAblationPrecision executes the comparison.
func RunAblationPrecision(opt Options) (*AblationPrecision, error) {
	opt = opt.normalized()
	const scenario = "video"
	p, err := trainedPolicy(scenario, opt, coreConfig())
	if err != nil {
		return nil, err
	}
	// The three precision deployments derive from the one trained policy:
	// build each governor serially (they snapshot/copy p's tables), then
	// fan the independent evaluations out. Each evaluation drives its own
	// governor instance, so no Q-table state is shared across cells.
	deployments := []struct {
		name string
		gov  sim.Governor
	}{
		{"float64 (software)", p},
		{"Q16.16 (hardware)", hwFromPolicy(p)},
		{"Q12.4 (coarse)", quantizePolicy(p, 4)}, // keep 4 fractional bits
	}
	rows, err := mapCells(opt, len(deployments), func(i int) (PrecisionRow, error) {
		res, err := evalGovernor(scenario, deployments[i].gov, opt)
		if err != nil {
			return PrecisionRow{}, err
		}
		return PrecisionRow{deployments[i].name, res.QoS.EnergyPerQoS, res.QoS.MeanQoS}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationPrecision{Rows: rows}, nil
}

// WriteText renders the comparison.
func (a *AblationPrecision) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Ablation A2: Q-table precision vs policy quality (video)")
	writeRule(w, 56)
	fmt.Fprintf(w, "%-22s %14s %10s\n", "precision", "energy/QoS", "meanQoS")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-22s %14.4f %10.4f\n", r.Name, r.EnergyPerQoS, r.MeanQoS)
	}
}

// quantizePolicy returns a frozen copy of p whose Q-values keep only
// fracBits fractional bits.
func quantizePolicy(p *core.Policy, fracBits uint) sim.Governor {
	snap, err := p.Snapshot()
	if err != nil {
		panic(err) // caller trained the policy, agents exist
	}
	scale := float64(uint64(1) << fracBits)
	for _, table := range snap.Tables {
		for _, row := range table {
			for i, v := range row {
				row[i] = float64(int64(v*scale)) / scale
			}
		}
	}
	q, err := core.PolicyFromSnapshot(coreConfig(), snap)
	if err != nil {
		panic(err) // the snapshot came from a policy of the same config
	}
	return q
}
