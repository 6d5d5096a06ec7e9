package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// runPmbench runs one invocation and returns its exit status and output.
func runPmbench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins pmbench's exit status for each kind of invocation:
// a usage error, an unknown experiment among them, is caught before any
// experiment prints, and a file pmbench cannot write fails the run.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no", "such", "dir")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-parallel", "x"}, 2},
		{[]string{"-exp", "nope"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-exp", "t3", "-quick"}, 0},
		{[]string{"-exp", "f4", "-quick", "-csv", filepath.Join(dir, "f4.csv")}, 0},
		{[]string{"-exp", "f4", "-quick", "-csv", filepath.Join(missing, "f4.csv")}, 1},
		{[]string{"-exp", "t3", "-quick", "-cpuprofile", filepath.Join(missing, "cpu.pprof")}, 1},
	} {
		code, stdout, stderr := runPmbench(c.args...)
		if code != c.want {
			t.Errorf("pmbench %q exited %d, want %d: %s", c.args, code, c.want, stderr)
		}
		if code == 2 && stdout != "" {
			t.Errorf("pmbench %q is a usage error but printed %q", c.args, stdout)
		}
	}
	if st, err := os.Stat(filepath.Join(dir, "f4.csv")); err != nil || st.Size() == 0 {
		t.Errorf("pmbench -csv wrote no series (stat: %v)", err)
	}
}
