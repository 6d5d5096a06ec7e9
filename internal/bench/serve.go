package bench

import (
	"fmt"

	"rlpm/internal/fault"
	"rlpm/internal/serve"
)

// ServeOptions selects the policy a serving harness hosts: train on the
// embedded Options for Scenario, then freeze the result behind Backend.
type ServeOptions struct {
	Options
	// Backend selects the serving arm: "sw" (in-memory table walk) or "hw"
	// (modeled accelerator behind the MMIO driver).
	Backend string
	// Scenario is the workload the policy trains on (default "gaming").
	Scenario string
	// Fault optionally wraps the hw backend with the fault injector so the
	// retry/degradation path serves.
	Fault *fault.Config
}

// TrainedServeModel trains a policy on opt's settings and freezes it into
// a serving model with its backend, for the binaries and harnesses that
// manage server lifecycles themselves (pmserve, pmload's harnesses, the
// fleet benchmark).
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
	var backend serve.Backend
	switch o.Backend {
	case "", "sw":
		backend = serve.NewSWBackend(model)
	case "hw":
		hwCfg := serve.DefaultHWBackendConfig()
		if o.Fault != nil {
			inj, err := fault.NewInjector(*o.Fault)
			if err != nil {
				return nil, nil, err
			}
			hwCfg.Injector = inj
		}
		backend, err = serve.NewHWBackend(model, hwCfg)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown serve backend %q", o.Backend)
	}
	return model, backend, nil
}
