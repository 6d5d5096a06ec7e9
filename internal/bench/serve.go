package bench

import (
	"rlpm/internal/serve"
)

// ServeOptions selects the policy a serving harness hosts: train on the
// embedded Options for Scenario, then freeze the result.
type ServeOptions struct {
	Options
	// Scenario is the workload the policy trains on (default "gaming").
	Scenario string
}

// TrainedServeModel trains a policy on opt's settings and freezes it into
// a serving model with the software backend, for the binaries and
// harnesses that manage server lifecycles themselves (pmserve, pmload's
// harnesses, the fleet benchmark).
func TrainedServeModel(o ServeOptions) (*serve.Model, serve.Backend, error) {
	opt := o.Options.normalized()
	scen := o.Scenario
	if scen == "" {
		scen = "gaming"
	}
	p, err := trainedPolicy(scen, opt, coreConfig())
	if err != nil {
		return nil, nil, err
	}
	model, err := serve.ModelFromPolicy(p, coreConfig())
	if err != nil {
		return nil, nil, err
	}
	return model, serve.NewSWBackend(model), nil
}
