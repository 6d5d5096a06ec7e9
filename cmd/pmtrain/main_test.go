package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlpm/internal/core"
	"rlpm/internal/serve"
	"rlpm/internal/soc"
)

// runPmtrain runs one invocation and returns its exit status and output.
func runPmtrain(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeZeroPolicy writes a checkpoint of all-zero tables, one per entry
// of levels with that many actions, encoded under st.
func writeZeroPolicy(t *testing.T, path string, st core.StateConfig, levels ...int) {
	t.Helper()
	var tables [][][]float64
	for _, n := range levels {
		table := make([][]float64, st.States(n))
		for s := range table {
			table[s] = make([]float64, n)
		}
		tables = append(tables, table)
	}
	save := func(w io.Writer) error { return core.WriteCheckpoint(w, st, core.NewFlatTables(tables)) }
	if err := writeFile(path, save); err != nil {
		t.Fatal(err)
	}
}

// TestExitCodes pins pmtrain's exit status for each kind of invocation.
// -metrics with -load is a usage error that writes no file: a loaded
// policy has no training gauges to report.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		t.Fatal(err)
	}
	var levels []int
	for i := 0; i < chip.NumClusters(); i++ {
		levels = append(levels, chip.Cluster(i).NumLevels())
	}
	def := core.DefaultConfig().State
	// A policy for a one-cluster chip does not fit the default chip.
	narrow := filepath.Join(dir, "narrow.policy")
	writeZeroPolicy(t, narrow, def, 8)
	// A policy of the default chip's shape recorded under another state
	// configuration with the same state count: only the recorded
	// configuration can refuse it.
	other := core.StateConfig{LoadBins: def.QoSBins, QoSBins: def.LoadBins, TrendBins: def.TrendBins}
	if other == def || other.States(1) != def.States(1) {
		t.Fatalf("%+v is not another config of the default's shape %+v", other, def)
	}
	otherState := filepath.Join(dir, "other-state.policy")
	writeZeroPolicy(t, otherState, other, levels...)
	fits := filepath.Join(dir, "zero.policy")
	writeZeroPolicy(t, fits, def, levels...)
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
		{[]string{"-load", otherState, "-duration", "1"}, 1},
		{[]string{"-load", fits, "-duration", "1"}, 0},
		{[]string{"-episodes", "1", "-duration", "1", "-o", filepath.Join(dir, "no", "such", "dir")}, 1},
		{[]string{"-episodes", "1", "-duration", "1", "-metrics", filepath.Join(dir, "train.prom")}, 0},
		{[]string{"-episodes", "1", "-duration", "1", "-o", filepath.Join(dir, "fits.policy")}, 0},
		{[]string{"-load", filepath.Join(dir, "fits.policy"), "-duration", "1", "-metrics", filepath.Join(dir, "load.prom")}, 2},
	} {
		if code, _, stderr := runPmtrain(c.args...); code != c.want {
			t.Errorf("pmtrain %q exited %d, want %d: %s", c.args, code, c.want, stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "load.prom")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("pmtrain -load -metrics left a metrics file (stat: %v)", err)
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

// TestSavedPolicyServes pins the one policy file format: the policy
// pmtrain -o saves is a checkpoint that serve.LoadModel, pmserve
// -checkpoint's loader, accepts, and serve.SaveModel writes the model it
// builds back byte for byte. The bytes themselves are pinned too.
func TestSavedPolicyServes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.policy")
	if code, _, stderr := runPmtrain("-episodes", "1", "-duration", "2", "-o", path); code != 0 {
		t.Fatalf("train exited %d: %s", code, stderr)
	}
	m, err := serve.LoadModel(path, core.DefaultConfig())
	if err != nil {
		t.Fatalf("serve.LoadModel on pmtrain -o output: %v", err)
	}
	resaved := filepath.Join(dir, "resaved.policy")
	if _, err := serve.SaveModel(resaved, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatal("serve.SaveModel of the loaded policy differs from what pmtrain -o wrote")
	}
	const want = "deec68ca3c402f688f453f689bf91eb522e71eb64899eb26fa70906ac40d3b80"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Errorf("pmtrain -o wrote SHA-256 %x, want %s", sum, want)
	}
}
