// Command fleetbench is the repository's open-loop fleet benchmark. It
// trains the served policy once; then, for each workload, it starts the
// real pmserve (and pmrouter) binaries on that policy, opens one session
// per simulated device, and drives the devices from one generator process
// on a fixed schedule: a warm-up, then rounds of a nominal-load window, a
// peak-load window and a closed-loop saturation window. It prints every
// metric by name and unit, replays a sample of the served decisions
// through an in-process server to check them, and ends with one JSON line:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"p50_ms": {"value": 0.12, "unit": "ms"}, ...}}
//
// Run it from the repository root through benchmark/run.sh, which builds
// the servers and this command under .bench_build/:
//
//	bash benchmark/run.sh --workload bin-k4 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 3 --trace 1 --out runs.jsonl
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds traced windows
// and single-goroutine probes and reports the per-layer metrics, writing
// the spans to .bench_build/trace/. See README.md for the workloads, the
// metric definitions and how to read the trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "comma-separated workload names, or all")
		seed    = fs.Uint64("seed", 1, "workload seed: device scenarios, streams and exploration")
		seconds = fs.Float64("seconds", 20, "measured seconds per workload run (nominal + peak + saturation windows)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced windows and probes")
		binDir  = fs.String("bin", "", "directory holding the pmserve and pmrouter binaries (run.sh passes it)")
		out     = fs.String("out", "", "append each run's full result as one JSON line to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "fleetbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *binDir == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "fleetbench: needs -bin DIR and positive -seconds, and takes no arguments; run it through benchmark/run.sh")
		return 2
	}
	var specs []workloadSpec
	if *names == "all" {
		specs = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, err := workloadByName(n)
			if err != nil {
				fmt.Fprintln(stderr, "fleetbench:", err)
				return 2
			}
			specs = append(specs, w)
		}
	}
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	buildDir := filepath.Dir(bin)

	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	ckpt := filepath.Join(workDir, "policy.ckpt")
	model, err := trainCheckpoint(ckpt)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench: training the served policy:", err)
		return 1
	}

	code := 0
	for _, spec := range specs {
		cfg := runConfig{spec: spec, seed: *seed, plan: planFor(*seconds), trace: *trace == 1,
			binDir: bin, workDir: workDir, checkpoint: ckpt}
		if cfg.trace {
			dir := filepath.Join(buildDir, "trace")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(stderr, "fleetbench:", err)
				return 1
			}
			cfg.traceFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", spec.Name, *seed))
		}
		res, err := runWorkload(ctx, cfg, model, stderr)
		if err == nil {
			err = report(stdout, *out, spec.Name, *seed, *seconds, *trace, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fleetbench: %s: %v\n", spec.Name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// outRecord is one line of an -out file: the result line plus what it
// takes to compare runs and trust them.
type outRecord struct {
	Workload    string                `json:"workload"`
	Seed        uint64                `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Trace       int                   `json:"trace"`
	Host        map[string]any        `json:"host"`
	Correct     bool                  `json:"correct"`
	Attempted   uint64                `json:"attempted"`
	Failed      uint64                `json:"failed"`
	Metrics     map[string]jsonMetric `json:"metrics"`
	Diagnostics map[string]jsonMetric `json:"diagnostics"`
	Notes       []string              `json:"notes,omitempty"`
}

func toMap(ms []metricOut) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", m.Name)
		}
		out[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return out, nil
}

// report prints the human-readable table, then the result line, and
// appends the full record to outPath when set.
func report(w io.Writer, outPath, workload string, seed uint64, seconds float64, trace int, res *runResult) error {
	metrics, err := toMap(res.Metrics)
	if err != nil {
		return err
	}
	diag, err := toMap(res.Diag)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== %s seed %d: attempted %d, failed %d, correct %v\n", workload, seed, res.Attempted, res.Failed, res.Correct)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Diag {
		fmt.Fprintf(w, "   (diag) %-21s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if outPath != "" {
		kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
		rec := outRecord{
			Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
			Host: map[string]any{
				"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
				"go": runtime.Version(), "kernel": strings.TrimSpace(string(kernel)),
			},
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: metrics, Diagnostics: diag, Notes: res.Notes,
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
