package serve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"rlpm/internal/leaktest"
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
		{"mid-run event error", func(run *FleetRun, _ *int, _ *Hygiene) {
			run.EventErr = errors.New("event 1: the fleet stalled at 2 of its 3 acked decisions")
		}, []string{"mid-run event: event 1: the fleet stalled"}},
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

// TestFleetEvents runs a fleet through two mid-run events against a
// loopback server. Each event lasts long enough for a fleet it did not
// hold to keep deciding; since every device past its threshold holds, the
// server decides at most one in-flight decide per other device while it
// runs, so its decision count stays within [At, At+Devices-1]. A failing
// event releases every held device and runs no later event, every device
// still completes, and the verdict reports the event.
func TestFleetEvents(t *testing.T) {
	defer leaktest.Check(t)()
	srv, err := New(chaosTestModel(t), nil, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	front, err := ServeFront(srv, "bin", ln)
	if err != nil {
		t.Fatalf("ServeFront: %v", err)
	}
	defer front.Close()
	client, err := NewFleetClient("bin", ln.Addr().String())
	if err != nil {
		t.Fatalf("NewFleetClient: %v", err)
	}
	defer client.Close()
	ctx := context.Background()
	cfg := FleetConfig{Devices: 4, Periods: 40, Seed: 3, Scenario: "gaming", Epsilon: 0.2}

	// The events run on RunFleet's controller, which RunFleet waits for,
	// so the spans need no lock.
	type span struct{ at, first, last uint64 }
	var spans []span
	decisions := func() uint64 {
		met := srv.Registry().Snapshot()
		return uint64(met.Value("serve_decisions_total", ""))
	}
	event := func(at uint64) FleetEvent {
		return FleetEvent{At: at, Do: func() error {
			first := decisions()
			time.Sleep(100 * time.Millisecond)
			spans = append(spans, span{at, first, decisions()})
			return nil
		}}
	}
	run := RunFleet(ctx, cfg, client.Open, event(40), event(80))
	checkVerdict(t, FleetVerdict(cfg, run, 0, Hygiene{}), nil)
	if len(spans) != 2 || spans[0].at != 40 || spans[1].at != 80 {
		t.Fatalf("events ran as %+v, want at 40 and then at 80", spans)
	}
	for _, s := range spans {
		t.Logf("event at %d: the server decided %d..%d while it ran", s.at, s.first, s.last)
		if hi := s.at + uint64(cfg.Devices) - 1; s.first < s.at || s.last > hi {
			t.Errorf("event at %d: the server decided %d..%d while it ran, want within [%d, %d]", s.at, s.first, s.last, s.at, hi)
		}
	}

	boom := errors.New("boom")
	later := false
	run = RunFleet(ctx, cfg, client.Open,
		FleetEvent{At: 40, Do: func() error { time.Sleep(50 * time.Millisecond); return boom }},
		FleetEvent{At: 80, Do: func() error { later = true; return nil }})
	if !errors.Is(run.EventErr, boom) {
		t.Errorf("EventErr = %v, want the failed event's error", run.EventErr)
	}
	if later {
		t.Error("an event after the failed one ran")
	}
	for idx, err := range run.Errs {
		if err != nil {
			t.Errorf("device %d did not complete after the failed event: %v", idx, err)
		}
	}
	if want := uint64(cfg.Devices * cfg.Periods); run.Decisions != want {
		t.Errorf("acked %d decisions after the failed event, want %d", run.Decisions, want)
	}
	checkVerdict(t, FleetVerdict(cfg, run, 0, Hygiene{}), []string{"mid-run event: event 1 at 40 acked decisions: boom"})
}

// TestChaosVerdict feeds chaosVerdict its own checks on top of a clean
// fleet; the fleet checks themselves are TestFleetVerdict's.
func TestChaosVerdict(t *testing.T) {
	cases := []struct {
		name    string
		restart string
		mutate  func(run *FleetRun, rep *ChaosReport)
		want    []string
	}{
		{"clean", "", func(*FleetRun, *ChaosReport) {}, nil},
		{"ledger mismatch without restart", "", func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards++
		}, []string{"reward ledger 5 != 4 client-acked"}},
		{"ledger mismatch across a restart", "crash", func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards++
		}, nil},
		{"restart error", "crash", func(run *FleetRun, _ *ChaosReport) {
			run.EventErr = errors.New("event 1: the fleet stalled at 2 of its 3 acked decisions")
		}, []string{"mid-run event: event 1: the fleet stalled"}},
		{"fleet violation", "", func(run *FleetRun, _ *ChaosReport) { run.Decisions-- }, []string{"acked 5 decisions"}},
		{"two violations", "", func(_ *FleetRun, rep *ChaosReport) {
			rep.ServerRewards--
			rep.Mismatches = 2
		}, []string{"reward ledger 3 != 4", "2 device(s) diverged"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fc, run, mismatches, h := cleanFleet()
			cfg := ChaosConfig{FleetConfig: fc, Restart: c.restart}
			run.Rewards = 4
			rep := &ChaosReport{Mismatches: mismatches, Hygiene: h, RewardsAcked: run.Rewards, ServerRewards: 4}
			c.mutate(run, rep)
			checkVerdict(t, chaosVerdict(cfg, run, rep), c.want)
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
			Swaps:      5,
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
		{"no publication", func(a, b *LearnReport) { a.Swaps = 0 }, []string{"published no tables"}},
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

// TestDeviceSeedDerivation pins the per-device seed formula. RunFleet,
// the learn harness, the fleet benchmark, and all differential oracles
// derive their streams through this function — from the device id only,
// never from the endpoint — so a silent change here would skew every
// byte-identical comparison in the suite.
func TestDeviceSeedDerivation(t *testing.T) {
	if got := DeviceSeed(1, 0); got != 1 {
		t.Fatalf("DeviceSeed(1, 0) = %d, want 1", got)
	}
	if got, want := DeviceSeed(1, 1), uint64(1+0x9e3779b9); got != want {
		t.Fatalf("DeviceSeed(1, 1) = %#x, want %#x", got, want)
	}
	if got, want := DeviceSeed(7, 100000), uint64(7+100000*0x9e3779b9); got != want {
		t.Fatalf("DeviceSeed(7, 100000) = %#x, want %#x", got, want)
	}
	// Device id only: the same (base, idx) always derives the same seed no
	// matter how a fleet run partitions devices over shards or workers.
	for idx := 0; idx < 64; idx++ {
		if DeviceSeed(3, idx) != DeviceSeed(3, idx) || DeviceSeed(3, idx) == DeviceSeed(4, idx) {
			t.Fatalf("seed derivation unstable at idx %d", idx)
		}
	}
}

// TestDeviceSimStreamEndpointIndependent is the regression for the
// per-device RNG-derivation fix: the same device (same base seed + id) served
// by two *independent* server processes — as a sharded fleet would —
// produces the byte-identical decision sequence. The device stream depends
// on nothing but the device id and the frozen model.
func TestDeviceSimStreamEndpointIndependent(t *testing.T) {
	model := testModel(t, 8, 6)
	fleet := FleetConfig{Devices: 4, Periods: 40, Seed: 5, Scenario: "gaming", Epsilon: 0.2, RewardEvery: 10}
	run := func(srv *Server) []int {
		t.Helper()
		sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.2, Seed: DeviceSeed(5, 3)})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		dev, err := fleet.life(3, sess.Decide, func(r float64) error {
			_, err := sess.RewardSeq(0, r)
			return err
		})
		if err != nil {
			t.Fatalf("device life: %v", err)
		}
		return dev.trace
	}

	srvA, err := New(model, nil, Config{})
	if err != nil {
		t.Fatalf("server A: %v", err)
	}
	defer srvA.Close()
	srvB, err := New(model, nil, Config{Epoch: 9}) // distinct incarnation
	if err != nil {
		t.Fatalf("server B: %v", err)
	}
	defer srvB.Close()

	// Warm server B with unrelated sessions first, so the device's stream
	// cannot depend on server-side session ordering or handle values.
	for i := 0; i < 5; i++ {
		if _, err := srvB.CreateSession(SessionOptions{Seed: 1000 + uint64(i)}); err != nil {
			t.Fatalf("warm session: %v", err)
		}
	}

	a, b := run(srvA), run(srvB)
	if !slices.Equal(a, b) {
		t.Fatalf("device stream differs across endpoints:\nA: %v\nB: %v", a[:16], b[:16])
	}
	if len(a) != 40*model.Clusters() {
		t.Fatalf("sequence length %d, want %d", len(a), 40*model.Clusters())
	}
}
