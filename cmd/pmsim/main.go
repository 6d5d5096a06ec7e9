// Command pmsim runs one scenario under one governor and prints the
// energy/QoS digest — the smallest way to poke the system.
//
// Usage:
//
//	pmsim -scenario gaming -governor ondemand
//	pmsim -scenario video -governor rl-policy -train 60
//	pmsim -scenario camera -governor rl-policy-hw
//	pmsim -list
//
// Exit status is 0 on success, 1 when the run fails (an unknown scenario
// or governor included), and 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rlpm/internal/bench"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one pmsim invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "gaming", "workload scenario")
		govName  = fs.String("governor", "ondemand", "governor: six baselines, schedutil, rl-policy, rl-policy-hw")
		duration = fs.Float64("duration", 120, "simulated seconds")
		period   = fs.Float64("period", 0.05, "control period in seconds")
		seed     = fs.Uint64("seed", 1, "scenario seed")
		train    = fs.Int("train", 60, "RL training episodes before evaluation")
		list     = fs.Bool("list", false, "list scenarios and governors")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "scenarios:", strings.Join(workload.Names(), ", "))
		fmt.Fprintln(stdout, "governors:", strings.Join(bench.GovernorNames(), ", "))
		return 0
	}
	if err := simulate(stdout, *scenario, *govName, *duration, *period, *seed, *train); err != nil {
		fmt.Fprintln(stderr, "pmsim:", err)
		return 1
	}
	return 0
}

func simulate(w io.Writer, scenario, govName string, duration, period float64, seed uint64, train int) error {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return err
	}
	spec, err := workload.ByName(scenario)
	if err != nil {
		return err
	}
	scen, err := workload.New(spec, chip.NumClusters(), seed)
	if err != nil {
		return err
	}
	cfg := sim.Config{PeriodS: period, DurationS: duration, Seed: seed}

	gov, err := bench.NewGovernor(govName, chip, scen, cfg, train)
	if err != nil {
		return err
	}

	res, err := sim.Run(chip, scen, gov, cfg)
	if err != nil {
		return err
	}
	s := res.QoS
	fmt.Fprintf(w, "scenario=%s governor=%s duration=%.0fs periods=%d\n", res.Scenario, res.Governor, duration, s.Periods)
	fmt.Fprintf(w, "  energy          %10.1f J\n", s.TotalEnergyJ)
	fmt.Fprintf(w, "  energy per QoS  %10.4f J/served-period\n", s.EnergyPerQoS)
	fmt.Fprintf(w, "  mean QoS        %10.4f (raw service %0.4f, min %0.4f)\n", s.MeanQoS, s.MeanService, s.MinQoS)
	fmt.Fprintf(w, "  violations      %10d of %d critical periods (%.2f%%)\n",
		s.Violations, s.CriticalPeriods, 100*s.ViolationRate)
	if hg, ok := gov.(*hwpolicy.Governor); ok {
		n, mean, max := hg.LatencyStats()
		fmt.Fprintf(w, "  hw decisions    %10d, mean MMIO latency %v (max %v)\n", n, mean, max)
	}
	return nil
}
