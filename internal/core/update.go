package core

// Transition is one (s, a, r, s') learning sample for one cluster agent,
// as reconstructed by the serving tier from a device's decide history and
// its reward report. Policy.Learn routes it by Cluster to that agent's
// Learn, which runs the TD step Agent.Step runs.
type Transition struct {
	Cluster   int
	State     int
	Action    int
	NextState int
	Reward    float64
}
