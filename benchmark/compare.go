package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// compareMain prints one verdict per (metric, workload) for two -out files,
// the parent's runs first, covering the BENCHMARK.json metrics and the
// tracked diagnostics. It runs from the repository root, where it reads
// BENCHMARK.json:
//
//	fleetbench compare parent.jsonl change.jsonl
//
// Runs pair up in file order per workload; run both sides with the same
// seeds in the same order, alternating which side runs first.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: fleetbench compare parent.jsonl change.jsonl")
		return 2
	}
	bf, err := readBenchFile("BENCHMARK.json")
	if err == nil {
		var a, b map[string]map[string][]float64
		if a, err = readRecords(args[0]); err == nil {
			if b, err = readRecords(args[1]); err == nil {
				printComparison(stdout, bf, a, b)
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "fleetbench compare:", err)
	return 1
}

// readRecords loads an -out file as workload → metric → values in file
// order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec outRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for _, ms := range []map[string]jsonMetric{rec.Metrics, rec.Diagnostics} {
			for name, m := range ms {
				out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

func printComparison(w io.Writer, bf *benchFile, a, b map[string]map[string][]float64) {
	var wls []string
	for wl := range a {
		if b[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-26s %-10s %3s %24s %24s %8s  %s\n", "metric", "workload", "n", "parent median [q1,q3]", "change median [q1,q3]", "delta", "verdict")
	for _, m := range slices.Concat(bf.EndToEnd, trackedDiagnostics, bf.PerLayer) {
		for _, wl := range wls {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-26s %-10s %3d %10.4g [%5.3g,%5.3g] %10.4g [%5.3g,%5.3g] %+7.1f%%  %s\n",
				m.Name, wl, min(len(va), len(vb)), ma, q1a, q3a, mb, q1b, q3b, 100*(mb-ma)/math.Abs(ma), verdict(m, va, vb))
		}
	}
}

// verdict classifies the change (b) against the parent (a) for one metric
// and workload:
//
//   - better: at least ten pairs, the change wins at least nine tenths of
//     them (ties count for neither), and the medians differ in its favour
//     by more than the parent's interquartile range;
//   - worse: the change's median is worse by more than the metric's bound
//     (for a metric without a bound — per-layer metrics and tracked
//     diagnostics — the mirror of better);
//   - unresolved: the run-to-run spread is wider than the bound, unless
//     every run of the change reads better than every run of the parent;
//     a metric without a bound that is neither better nor worse;
//   - unchanged: otherwise.
func verdict(m benchMetric, a, b []float64) string {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	gain := sign * (mb - ma)
	if n >= 10 && wins*10 >= 9*n && gain > q3a-q1a {
		return "better"
	}
	if m.Bound == nil {
		if n >= 10 && losses*10 >= 9*n && -gain > q3a-q1a {
			return "worse"
		}
		return "unresolved"
	}
	bound := *m.Bound
	if -gain > bound*math.Abs(ma) {
		return "worse"
	}
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	if spread > bound && !allBetter(sign, a, b) {
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}
