package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rlpm/internal/chaos"
	"rlpm/internal/serve"
)

// TestShardedDifferentialOracleBin is the headline differential: a 4-shard
// fleet behind the router serves every device a decision sequence
// byte-identical to a single-process server over the same model. No
// membership change — this pins routing + checkpoint hydration alone.
func TestShardedDifferentialOracleBin(t *testing.T) {
	model := testModel(t, 8, 6)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:   "bin",
		Shards:  4,
		Devices: 10,
		Periods: 90,
		Seed:    7,
		Epsilon: 0.2,
	})
	if err != nil {
		t.Fatalf("differential run: %v (report %+v)", err, rep)
	}
	if rep.Decisions != 10*90 {
		t.Fatalf("acked %d decisions, want %d", rep.Decisions, 10*90)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d devices diverged from the oracle", rep.Mismatches)
	}
	if rep.Moved != 0 || rep.Resumes != 0 {
		t.Fatalf("steady-state run saw handoffs: moved=%d resumes=%d", rep.Moved, rep.Resumes)
	}
}

// TestShardedDifferentialOracleJSON runs the same differential over the
// router's JSON face.
func TestShardedDifferentialOracleJSON(t *testing.T) {
	model := testModel(t, 6, 4)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:   "json",
		Shards:  2,
		Devices: 6,
		Periods: 50,
		Seed:    3,
		Epsilon: 0.2,
	})
	if err != nil {
		t.Fatalf("differential run: %v (report %+v)", err, rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d devices diverged from the oracle", rep.Mismatches)
	}
}

// TestRebalanceGraceful removes the most-loaded shard mid-run (ring first,
// then stop) and adds a fresh shard later — sessions hand off with zero
// lost or duplicated decisions and no divergence.
func TestRebalanceGraceful(t *testing.T) {
	model := testModel(t, 8, 6)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:     "bin",
		Shards:    3,
		Devices:   9,
		Periods:   120,
		Seed:      5,
		Epsilon:   0.25,
		Rebalance: true,
	})
	if err != nil {
		t.Fatalf("rebalance run: %v (report %+v)", err, rep)
	}
	if rep.Removed == "" || rep.Added == "" {
		t.Fatalf("rebalance did not record both membership changes: %+v", rep)
	}
	if rep.Moved == 0 {
		t.Fatal("no sessions moved — handoff path unexercised")
	}
	if rep.Resumes == 0 || rep.RouterResumes == 0 {
		t.Fatalf("handoff without resumes: client=%d router=%d", rep.Resumes, rep.RouterResumes)
	}
}

// TestRebalanceKill is the abrupt flavor: the victim shard dies with
// sessions live, then leaves the ring. Devices must ride out the failed
// forwards and still match the oracle exactly.
func TestRebalanceKill(t *testing.T) {
	model := testModel(t, 8, 6)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:     "bin",
		Shards:    3,
		Devices:   9,
		Periods:   120,
		Seed:      11,
		Epsilon:   0.25,
		Rebalance: true,
		Kill:      true,
	})
	if err != nil {
		t.Fatalf("kill run: %v (report %+v)", err, rep)
	}
	if rep.Moved == 0 || rep.Resumes == 0 {
		t.Fatalf("kill run saw no handoffs: moved=%d resumes=%d", rep.Moved, rep.Resumes)
	}
}

// TestRebalanceJSONGraceful exercises the handoff through the JSON face.
func TestRebalanceJSONGraceful(t *testing.T) {
	model := testModel(t, 6, 4)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:     "json",
		Shards:    2,
		Devices:   6,
		Periods:   90,
		Seed:      9,
		Epsilon:   0.2,
		Rebalance: true,
	})
	if err != nil {
		t.Fatalf("json rebalance run: %v (report %+v)", err, rep)
	}
	if rep.Moved == 0 || rep.Resumes == 0 {
		t.Fatalf("json rebalance saw no handoffs: moved=%d resumes=%d", rep.Moved, rep.Resumes)
	}
}

// TestRebalanceUnderFaults layers a seeded fault schedule (drops, latency)
// between devices and the router on top of a graceful rebalance — the
// decision stream must still match the oracle byte for byte.
func TestRebalanceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault leg skipped in -short")
	}
	model := testModel(t, 6, 4)
	rep, err := RunRebalance(context.Background(), model, RebalanceConfig{
		Proto:     "bin",
		Shards:    2,
		Devices:   6,
		Periods:   80,
		Seed:      13,
		Epsilon:   0.2,
		Rebalance: true,
		Faults: chaos.Config{
			DropRate:    0.002,
			LatencyRate: 0.02,
			LatencyFor:  2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("faulted rebalance run: %v (report %+v)", err, rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d devices diverged under faults", rep.Mismatches)
	}
}

// TestRebalanceVerdict feeds rebalanceVerdict its own checks on top of a
// clean fleet; the fleet checks themselves are serve's TestFleetVerdict.
func TestRebalanceVerdict(t *testing.T) {
	cases := []struct {
		name      string
		rebalance bool
		ctrlErr   error
		mutate    func(run *serve.FleetRun, rep *RebalanceReport)
		want      []string
	}{
		{"clean", true, nil, func(*serve.FleetRun, *RebalanceReport) {}, nil},
		{"nothing moved while rebalancing", true, nil, func(_ *serve.FleetRun, rep *RebalanceReport) {
			rep.Moved = 0
		}, []string{"moved no sessions"}},
		{"nothing moved without a rebalance", false, nil, func(_ *serve.FleetRun, rep *RebalanceReport) {
			rep.Moved = 0
		}, nil},
		{"controller error", true, errors.New("fleet stalled"), func(*serve.FleetRun, *RebalanceReport) {}, []string{"rebalance controller: fleet stalled"}},
		{"two violations", true, nil, func(run *serve.FleetRun, rep *RebalanceReport) {
			rep.Moved = 0
			run.Decisions++
		}, []string{"moved no sessions", "acked 7 decisions, want 6"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := RebalanceConfig{Devices: 2, Periods: 3, Rebalance: c.rebalance}
			run := &serve.FleetRun{Traces: make([][]int, 2), Errs: make([]error, 2), Decisions: 6}
			rep := &RebalanceReport{Moved: 4}
			c.mutate(run, rep)
			err := rebalanceVerdict(cfg, run, rep, c.ctrlErr)
			if len(c.want) == 0 {
				if err != nil {
					t.Fatalf("clean evidence failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("verdict passed, want violations %q", c.want)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("verdict %q does not report %q", err, w)
				}
			}
		})
	}
}
