package rlpm_test

// The checkpoint bytes are the policy's one durable form: pmtrain -o
// writes them, pmserve -checkpoint serves them, and a restarted or new
// shard hydrates from them. A change to the codec or to the tables it
// encodes must not move them.

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rlpm/internal/bench"
	"rlpm/internal/core"
	"rlpm/internal/serve"
)

// checkpointSHA256 saves snap with serve.SaveCheckpoint and returns the
// SHA-256 of the file it wrote.
func checkpointSHA256(t *testing.T, snap core.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.ckpt")
	if _, err := serve.SaveCheckpoint(path, snap); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestCheckpointBytesGolden pins what serve.SaveCheckpoint writes for two
// inputs: a fixed two-cluster snapshot of different widths holding a NaN
// with a payload, -0 and ±Inf, and the quick gaming policy at seed 1,
// trained with the fleet benchmark's settings.
func TestCheckpointBytesGolden(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		st := core.StateConfig{LoadBins: 2, QoSBins: 1, TrendBins: 3}
		snap := core.Snapshot{State: st}
		for c, width := range []int{3, 5} {
			table := make([][]float64, st.States(width))
			for s := range table {
				table[s] = make([]float64, width)
				for a := range table[s] {
					table[s][a] = float64(1000*c+width*s+a)/7 - 3
				}
			}
			table[0][0] = math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
			table[1][width-1] = math.Copysign(0, -1)
			table[2][0] = math.Inf(1)
			table[2][1] = math.Inf(-1)
			snap.Tables = append(snap.Tables, table)
		}
		const want = "2ae0560ee470500adeff62210009a3a33672a55308fb27dbff31140c7a61d2a8"
		if got := checkpointSHA256(t, snap); got != want {
			t.Errorf("fixed snapshot checkpoint SHA-256 %s, want %s", got, want)
		}
	})
	t.Run("quick-gaming", func(t *testing.T) {
		opt := bench.DefaultOptions()
		opt.Quick = true
		model, _, err := bench.TrainedServeModel(bench.ServeOptions{Options: opt, Scenario: "gaming"})
		if err != nil {
			t.Fatal(err)
		}
		const want = "08f256aa0e357ef24cef029096f605d3a612ca9f976550a3902766702602952f"
		if got := checkpointSHA256(t, model.Snapshot()); got != want {
			t.Errorf("quick gaming policy checkpoint SHA-256 %s, want %s", got, want)
		}
	})
}
