package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlpm/internal/bench"
)

// runPmtrace runs one invocation and returns its exit status and output.
func runPmtrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// csvHeader is the first line of a trace over the default two-cluster
// chip.
const csvHeader = "time,level0,level1,util0,util1,power,qos,critical\n"

// TestExitCodes pins pmtrace's exit status for each kind of invocation.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-governor", "nope", "-duration", "1"}, 1},
		{[]string{"-scenario", "nope", "-duration", "1"}, 1},
		{[]string{"-duration", "1", "-o", filepath.Join(t.TempDir(), "missing", "t.csv")}, 1},
	} {
		if code, _, stderr := runPmtrace(c.args...); code != c.want {
			t.Errorf("pmtrace %q exited %d, want %d: %s", c.args, code, c.want, stderr)
		}
	}
}

// TestEveryListedGovernorTraces runs every governor pmsim -list names
// (bench.GovernorNames) under pmtrace: each must exit 0 and write the CSV.
func TestEveryListedGovernorTraces(t *testing.T) {
	for _, name := range bench.GovernorNames() {
		code, stdout, stderr := runPmtrace("-governor", name, "-duration", "1", "-train", "1")
		if code != 0 || !strings.HasPrefix(stdout, csvHeader) {
			t.Errorf("pmtrace -governor %s exited %d: %.200s%s", name, code, stdout, stderr)
		}
	}
}

// TestOutputFile checks that -o writes the same CSV stdout would get.
func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if code, _, stderr := runPmtrace("-duration", "1", "-o", path); code != 0 {
		t.Fatalf("pmtrace -o exited %d: %s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := runPmtrace("-duration", "1")
	if string(got) != want || !strings.HasPrefix(want, csvHeader) {
		t.Fatalf("-o wrote %d bytes, stdout got %d", len(got), len(want))
	}
}
