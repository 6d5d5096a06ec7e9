// Command pmtrace runs a scenario under a governor and writes the
// per-period time series (OPP levels, utilizations, power, QoS) as CSV —
// the raw material for Fig. 4-style plots.
//
// Usage:
//
//	pmtrace -scenario gaming -governor rl-policy -o gaming_rl.csv
//	pmtrace -scenario gaming -governor ondemand            # CSV to stdout
//
// Exit status is 0 on success, 1 when the run fails (an unknown scenario
// or governor included), and 2 on a usage error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rlpm/internal/bench"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/trace"
	"rlpm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one pmtrace invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "gaming", "workload scenario")
		govName  = fs.String("governor", "ondemand", "governor name (see pmsim -list)")
		duration = fs.Float64("duration", 30, "simulated seconds")
		period   = fs.Float64("period", 0.05, "control period in seconds")
		seed     = fs.Uint64("seed", 1, "scenario seed")
		train    = fs.Int("train", 60, "RL training episodes before the traced run")
		out      = fs.String("o", "", "output CSV path (default stdout)")
		every    = fs.Int("every", 1, "keep every k-th sample")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	write := func(w io.Writer) error {
		return traceRun(w, *scenario, *govName, *duration, *period, *seed, *train, *every)
	}
	var err error
	if *out == "" {
		err = write(stdout)
	} else {
		err = writeFile(*out, write)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pmtrace:", err)
		return 1
	}
	return 0
}

// writeFile runs write into a buffered file at path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func traceRun(w io.Writer, scenario, govName string, duration, period float64, seed uint64, train, every int) error {
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

	// The RL governors train on 120 s episodes, whatever the traced run's
	// duration.
	trainCfg := sim.Config{PeriodS: period, DurationS: 120, Seed: seed}
	gov, err := bench.NewGovernor(govName, chip, scen, trainCfg, train)
	if err != nil {
		return err
	}

	rec, err := trace.NewRecorder(sim.RecorderColumns(chip.NumClusters())...)
	if err != nil {
		return err
	}
	cfg := sim.Config{PeriodS: period, DurationS: duration, Seed: seed, Recorder: rec}
	if _, err := sim.Run(chip, scen, gov, cfg); err != nil {
		return err
	}
	if every > 1 {
		rec, err = rec.Downsample(every)
		if err != nil {
			return err
		}
	}
	return rec.WriteCSV(w)
}
