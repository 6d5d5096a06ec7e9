package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlpm/internal/core"
)

// runPmtrain runs one invocation and returns its exit status and output.
func runPmtrain(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins pmtrain's exit status for each kind of invocation.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	// A policy for a one-cluster chip does not fit the default chip.
	narrow := filepath.Join(dir, "narrow.policy")
	cfg := core.DefaultConfig()
	table := make([][]float64, cfg.State.States(8))
	for s := range table {
		table[s] = make([]float64, 8)
	}
	if err := writeFile(narrow, core.Snapshot{State: cfg.State, Tables: [][][]float64{table}}.Encode); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-episodes", "x"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-episodes", "0"}, 1},
		{[]string{"-scenario", "nope", "-episodes", "1", "-duration", "1"}, 1},
		{[]string{"-load", filepath.Join(dir, "missing.policy"), "-duration", "1"}, 1},
		{[]string{"-load", narrow, "-duration", "1"}, 1},
		{[]string{"-episodes", "1", "-duration", "1", "-o", filepath.Join(dir, "no", "such", "dir")}, 1},
		{[]string{"-episodes", "1", "-duration", "1", "-metrics", filepath.Join(dir, "train.prom")}, 0},
	} {
		if code, _, stderr := runPmtrain(c.args...); code != c.want {
			t.Errorf("pmtrain %q exited %d, want %d: %s", c.args, code, c.want, stderr)
		}
	}
}

// evaluationLine returns the one "evaluation on" line of a run's output.
func evaluationLine(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "evaluation on ") {
			return line
		}
	}
	t.Fatalf("no evaluation line in %q", stdout)
	return ""
}

// TestLoadEvaluatesWhatTrainingReported pins that pmtrain evaluates the
// policy it saves: -load of the file a training run wrote prints that
// run's evaluation line, on the training scenario and on a transfer.
func TestLoadEvaluatesWhatTrainingReported(t *testing.T) {
	for _, scenario := range []string{"video", "gaming"} {
		t.Run(scenario, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), scenario+".policy")
			common := []string{"-scenario", scenario, "-duration", "20", "-seed", "1"}
			code, trained, stderr := runPmtrain(append([]string{"-episodes", "5", "-o", path}, common...)...)
			if code != 0 {
				t.Fatalf("train exited %d: %s", code, stderr)
			}
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Fatalf("train -o left no policy: %v", err)
			}
			code, loaded, stderr := runPmtrain(append([]string{"-load", path}, common...)...)
			if code != 0 {
				t.Fatalf("load exited %d: %s", code, stderr)
			}
			if got, want := evaluationLine(t, loaded), evaluationLine(t, trained); got != want {
				t.Fatalf("-load evaluated the saved policy differently:\nload:  %s\ntrain: %s", got, want)
			}
		})
	}
}
