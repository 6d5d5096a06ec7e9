package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// checkVerdict asserts err reports every wanted violation, or is nil when
// none is wanted.
func checkVerdict(t *testing.T, err error, want []string) {
	t.Helper()
	if len(want) == 0 {
		if err != nil {
			t.Fatalf("clean evidence failed: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("verdict passed, want violations %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("verdict %q does not report %q", err, w)
		}
	}
}

// cleanFleet is the evidence of a run that held every fleet invariant.
func cleanFleet() (FleetConfig, *FleetRun, int, Hygiene) {
	cfg := FleetConfig{Devices: 2, Periods: 3}
	run := &FleetRun{
		Traces:    [][]int{{1, 2, 1, 2, 1, 2}, {0, 1, 0, 1, 0, 1}},
		Errs:      make([]error, 2),
		Decisions: 6,
	}
	h := Hygiene{GoroutinesStart: 5, GoroutinesEnd: 5, HeapAllocStart: 1 << 20, HeapAllocEnd: 2 << 20}
	return cfg, run, 0, h
}

// TestFleetVerdict feeds FleetVerdict one violation per row.
func TestFleetVerdict(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(run *FleetRun, mismatches *int, h *Hygiene)
		want   []string
	}{
		{"clean", func(*FleetRun, *int, *Hygiene) {}, nil},
		{"device error", func(run *FleetRun, _ *int, _ *Hygiene) {
			run.Errs[1] = errors.New("device 1 close: boom")
		}, []string{"device 1 close: boom"}},
		{"lost decide", func(run *FleetRun, _ *int, _ *Hygiene) { run.Decisions-- }, []string{"acked 5 decisions, want 6"}},
		{"duplicated decide", func(run *FleetRun, _ *int, _ *Hygiene) { run.Decisions++ }, []string{"acked 7 decisions, want 6"}},
		{"divergent trace", func(_ *FleetRun, mismatches *int, _ *Hygiene) { *mismatches = 1 }, []string{"1 device(s) diverged"}},
		{"leaked goroutine", func(_ *FleetRun, _ *int, h *Hygiene) { h.GoroutinesEnd++ }, []string{"leaked goroutines: 5 before, 6 after"}},
		{"heap within bound", func(_ *FleetRun, _ *int, h *Hygiene) { h.HeapAllocEnd = h.HeapAllocStart + maxHeapGrowth }, nil},
		{"heap growth", func(_ *FleetRun, _ *int, h *Hygiene) { h.HeapAllocEnd = h.HeapAllocStart + maxHeapGrowth + 1 }, []string{"heap grew"}},
		{"two violations", func(run *FleetRun, _ *int, h *Hygiene) {
			run.Errs[0] = errors.New("device 0 open: refused")
			h.GoroutinesEnd += 3
		}, []string{"device 0 open: refused", "leaked goroutines"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, run, mismatches, h := cleanFleet()
			c.mutate(run, &mismatches, &h)
			checkVerdict(t, FleetVerdict(cfg, run, mismatches, h), c.want)
		})
	}
}

// TestChaosVerdict feeds chaosVerdict its own checks on top of a clean
// fleet; the fleet checks themselves are TestFleetVerdict's.
func TestChaosVerdict(t *testing.T) {
	cases := []struct {
		name       string
		restart    string
		restartErr error
		mutate     func(run *FleetRun, rep *ChaosReport)
		want       []string
	}{
		{"clean", "", nil, func(*FleetRun, *ChaosReport) {}, nil},
		{"ledger mismatch without restart", "", nil, func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards++
		}, []string{"reward ledger 5 != 4 client-acked"}},
		{"ledger mismatch across a restart", "crash", nil, func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards++
		}, nil},
		{"restart error", "crash", errors.New("fleet stalled"), func(*FleetRun, *ChaosReport) {}, []string{"chaos restart: fleet stalled"}},
		{"fleet violation", "", nil, func(run *FleetRun, _ *ChaosReport) { run.Decisions-- }, []string{"acked 5 decisions"}},
		{"two violations", "", nil, func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards--
			rep.Mismatches = 2
		}, []string{"reward ledger 3 != 4", "2 device(s) diverged"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fc, run, mismatches, h := cleanFleet()
			cfg := ChaosConfig{
				Devices: fc.Devices, Periods: fc.Periods, Restart: c.restart,
			}
			run.Rewards = 4
			rep := &ChaosReport{Mismatches: mismatches, Hygiene: h, RewardsAcked: run.Rewards, ServerRewards: 4}
			c.mutate(run, rep)
			checkVerdict(t, chaosVerdict(cfg, run, rep, c.restartErr), c.want)
		})
	}
}

// TestLearnVerdict feeds learnVerdict one violation per row.
func TestLearnVerdict(t *testing.T) {
	cfg, snap := testSnapshot(t, 8, 9)
	var ckpt bytes.Buffer
	if err := snap.EncodeCheckpoint(&ckpt); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	clean := func() *LearnReport {
		return &LearnReport{
			Updates:    10,
			Traces:     [][]int{{1, 2, 3}, {4, 5, 6}},
			Checkpoint: bytes.Clone(ckpt.Bytes()),
		}
	}
	cases := []struct {
		name   string
		mutate func(a, b *LearnReport)
		want   []string
	}{
		{"clean", func(a, b *LearnReport) {}, nil},
		{"no updates", func(a, b *LearnReport) { a.Updates = 0 }, []string{"no Q-updates"}},
		{"dropped samples", func(a, b *LearnReport) { a.Dropped = 3 }, []string{"dropped 3 samples"}},
		{"rejected samples", func(a, b *LearnReport) { a.Rejected = 2 }, []string{"rejected 2"}},
		{"divergent trace", func(a, b *LearnReport) { b.Traces[1][2]++ }, []string{"diverged on device 1"}},
		{"different checkpoint bytes", func(a, b *LearnReport) {
			b.Checkpoint[len(b.Checkpoint)-1] ^= 1
		}, []string{"different learned tables"}},
		{"undecodable checkpoint", func(a, b *LearnReport) {
			a.Checkpoint, b.Checkpoint = []byte("not a checkpoint"), []byte("not a checkpoint")
		}, []string{"does not reload"}},
		{"two violations", func(a, b *LearnReport) {
			a.Updates = 0
			b.Traces[0][0]++
		}, []string{"no Q-updates", "diverged on device 0"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := clean(), clean()
			c.mutate(a, b)
			checkVerdict(t, learnVerdict(cfg, a, b), c.want)
		})
	}
}
