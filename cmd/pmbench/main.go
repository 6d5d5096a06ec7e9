// Command pmbench regenerates the paper's evaluation: every table and
// figure, selected by experiment id.
//
// Usage:
//
//	pmbench -exp t1            # Table 1: energy/QoS vs six governors
//	pmbench -exp t2            # Table 2: SW vs HW decision latency
//	pmbench -exp t3            # Table 3: FPGA resource estimates
//	pmbench -exp f2            # Fig. 2: learning convergence
//	pmbench -exp f3            # Fig. 3: energy & QoS bars
//	pmbench -exp f4            # Fig. 4: trace summary
//	pmbench -exp a1..a6        # ablations (state bins, precision, lambda, switch cost, algorithm, obs noise)
//	pmbench -exp oracle        # best-static-pin reference
//	pmbench -exp life          # battery-life projection per governor
//	pmbench -exp symm          # symmetric 8-core chip evaluation
//	pmbench -exp gpu           # three-domain (LITTLE+big+GPU) evaluation
//	pmbench -exp seeds         # Table 1 replicated over 5 seeds (mean ± CI)
//	pmbench -exp faults        # fault injection: HW path robustness grid
//	pmbench -exp all           # everything, in order
//	pmbench -quick             # ~10x shorter runs for smoke testing
//	pmbench -parallel 8        # engine worker count (0 = GOMAXPROCS, 1 = serial)
//	pmbench -csv fig2.csv      # also write the figure series as CSV (f2/f4)
//	pmbench -cpuprofile cpu.pprof   # write a CPU profile of the run
//	pmbench -memprofile mem.pprof   # write an allocation profile at exit
//	pmbench -trace trace.out        # write a runtime execution trace
//
// Output is byte-identical at every -parallel setting: evaluation cells
// fan out over internal/bench/engine but merge in canonical order, and
// each cell owns its deterministic RNG streams.
//
// Exit status is 0 on success (also for -h), 1 when an experiment, a
// profile or the CSV file fails, and 2 on a usage error: a bad flag or an
// unknown -exp.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"rlpm/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one pmbench invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id: "+strings.Join(bench.ExperimentIDs(), ",")+",all")
		quick    = fs.Bool("quick", false, "shrink runs ~10x for smoke testing")
		csvPath  = fs.String("csv", "", "write figure series (f2/f4) as CSV to this path")
		dur      = fs.Float64("duration", 0, "override evaluated seconds per scenario")
		eps      = fs.Int("episodes", 0, "override RL training episodes")
		seed     = fs.Uint64("seed", 0, "override scenario/exploration seed")
		parallel = fs.Int("parallel", 0, "experiment-engine workers (0 = GOMAXPROCS, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this path at exit")
		trcPath  = fs.String("trace", "", "write a runtime execution trace to this path")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	ids := bench.ExperimentIDs()
	if *exp != "all" {
		if _, err := bench.ExperimentByID(*exp); err != nil {
			fmt.Fprintln(stderr, "pmbench:", err)
			return 2
		}
		ids = []string{*exp}
	}

	stopProfiling, err := startProfiling(*cpuProf, *memProf, *trcPath, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pmbench:", err)
		return 1
	}
	defer stopProfiling()

	opt := bench.DefaultOptions()
	opt.Quick = *quick
	opt.Parallel = *parallel
	if *dur > 0 {
		opt.DurationS = *dur
	}
	if *eps > 0 {
		opt.TrainEpisodes = *eps
	}
	if *seed > 0 {
		opt.Seed = *seed
	}

	if err := runExperiments(ids, opt, *csvPath, stdout); err != nil {
		fmt.Fprintln(stderr, "pmbench:", err)
		return 1
	}
	return 0
}

// startProfiling wires the requested profilers up and returns an
// idempotent stop function that flushes them.
func startProfiling(cpuPath, memPath, tracePath string, stderr io.Writer) (func(), error) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(stderr, "pmbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "pmbench:", err)
			}
		})
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		for _, s := range stops {
			s()
		}
	}, nil
}

// runExperiments runs the experiments ids in order, writing each one's
// text and wall time to w.
func runExperiments(ids []string, opt bench.Options, csvPath string, w io.Writer) error {
	for _, id := range ids {
		start := time.Now()
		if err := runOne(id, opt, csvPath, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(w, "[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runOne(id string, opt bench.Options, csvPath string, w io.Writer) error {
	e, err := bench.ExperimentByID(id)
	if err != nil {
		return err
	}
	res, err := e.Run(opt)
	if err != nil {
		return err
	}
	res.WriteText(w)
	if csvPath == "" {
		return nil
	}
	f, ok := res.(bench.CSVWriter)
	if !ok {
		return nil
	}
	out, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	err = f.WriteCSV(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
