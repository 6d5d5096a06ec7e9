package governor

import (
	"fmt"

	"rlpm/internal/sim"
)

// BaselineNames lists the six governors the paper compares against, in
// table order.
func BaselineNames() []string {
	return []string{
		"performance",
		"powersave",
		"userspace",
		"ondemand",
		"conservative",
		"interactive",
	}
}

// New constructs a fresh governor by name. "schedutil" is available as an
// extension beyond the paper's six baselines.
func New(name string) (sim.Governor, error) {
	switch name {
	case "performance":
		return NewPerformance(), nil
	case "powersave":
		return NewPowersave(), nil
	case "userspace":
		// Conventional evaluation pin: middle of the OPP table.
		return mustUserspace(0.5), nil
	case "ondemand":
		return NewOndemand(), nil
	case "conservative":
		return NewConservative(), nil
	case "interactive":
		return NewInteractive(), nil
	case "schedutil":
		return NewSchedutil(), nil
	default:
		return nil, fmt.Errorf("governor: unknown governor %q", name)
	}
}

func mustUserspace(f float64) *Userspace {
	u, err := NewUserspace(f)
	if err != nil {
		panic(err)
	}
	return u
}
