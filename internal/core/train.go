package core

import (
	"fmt"

	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// TrainResult reports per-episode learning progress (the series behind
// Fig. 2).
type TrainResult struct {
	EnergyPerQoS  []float64 // one point per episode
	MeanQoS       []float64
	ViolationRate []float64
	Epsilon       []float64 // exploration rate at episode end
}

// Train runs the policy online for the given number of episodes of the
// scenario on the chip and returns the learning curve. The policy keeps
// its table afterwards; call p.SetLearning(false) to freeze it for
// evaluation.
func Train(chip *soc.Chip, scen workload.Scenario, p *Policy, cfg sim.Config, episodes int) (TrainResult, error) {
	if episodes <= 0 {
		return TrainResult{}, fmt.Errorf("core: non-positive episode count %d", episodes)
	}
	p.SetLearning(true)
	var tr TrainResult
	results, err := sim.RunEpisodes(chip, scen, p, cfg, episodes)
	if err != nil {
		return TrainResult{}, err
	}
	for _, r := range results {
		tr.EnergyPerQoS = append(tr.EnergyPerQoS, r.QoS.EnergyPerQoS)
		tr.MeanQoS = append(tr.MeanQoS, r.QoS.MeanQoS)
		tr.ViolationRate = append(tr.ViolationRate, r.QoS.ViolationRate)
		tr.Epsilon = append(tr.Epsilon, p.MeanEpsilon())
	}
	return tr, nil
}
