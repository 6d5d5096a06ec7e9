package main

import (
	"bytes"
	"strings"
	"testing"

	"rlpm/internal/bench"
)

// runPmsim runs one invocation and returns its exit status and output.
func runPmsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins pmsim's exit status for each kind of invocation.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-governor", "nope", "-duration", "1"}, 1},
		{[]string{"-scenario", "nope", "-duration", "1"}, 1},
		{[]string{"-list"}, 0},
		{[]string{"-duration", "1"}, 0},
	} {
		if code, _, stderr := runPmsim(c.args...); code != c.want {
			t.Errorf("pmsim %q exited %d, want %d: %s", c.args, code, c.want, stderr)
		}
	}
}

// TestListNamesEveryGovernor pins -list to the governors bench.NewGovernor
// builds, so every name it prints runs (pmtrace's tests run each one).
func TestListNamesEveryGovernor(t *testing.T) {
	_, stdout, _ := runPmsim("-list")
	want := "governors: " + strings.Join(bench.GovernorNames(), ", ") + "\n"
	if !strings.Contains(stdout, want) {
		t.Fatalf("pmsim -list printed %q, want a line %q", stdout, want)
	}
	for _, name := range bench.GovernorNames() {
		code, stdout, stderr := runPmsim("-governor", name, "-duration", "1", "-train", "1")
		if code != 0 || !strings.Contains(stdout, "governor=") {
			t.Errorf("pmsim -governor %s exited %d: %s%s", name, code, stdout, stderr)
		}
	}
}
