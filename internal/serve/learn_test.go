package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// learnServer builds an in-process learning server in manual (seeded
// replay) mode with per-update publication, so tests control exactly when
// updates apply and tables swap.
func learnServer(t *testing.T, m *Model) *Server {
	t.Helper()
	return newTestServer(t, m, nil, Config{Learn: LearnConfig{
		Enabled: true, Manual: true, Seed: 9, SwapEvery: 1,
	}})
}

// TestRewardSeqDedupExactlyOnce pins the reward-path fix this package's
// learner depends on: a retried reward frame (same seq) is answered from
// the ledger and applies nothing — no double-count, no second Q-update.
func TestRewardSeqDedupExactlyOnce(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := learnServer(t, m)
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := testObs(m, 3, 2)
	for _, o := range obs { // two periods complete the transition pair
		if _, err := sess.Decide(o); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}

	st1, err := sess.RewardSeq(1, -0.5)
	if err != nil {
		t.Fatalf("RewardSeq(1): %v", err)
	}
	st2, err := sess.RewardSeq(1, -0.5) // lost-ack retry
	if err != nil {
		t.Fatalf("RewardSeq(1) replay: %v", err)
	}
	if st1 != st2 {
		t.Errorf("replay stats %+v != original %+v", st2, st1)
	}
	met := srv.MetricsSnapshot()
	if met.Rewards != 1 || met.RewardsDeduped != 1 {
		t.Errorf("rewards=%d deduped=%d, want 1/1", met.Rewards, met.RewardsDeduped)
	}
	// The replay queued no second batch of transitions: exactly one
	// Q-update sample per cluster reaches the learner.
	if n := srv.LearnTick(); n != m.Clusters() {
		t.Errorf("LearnTick applied %d transitions, want %d", n, m.Clusters())
	}

	if _, err := sess.RewardSeq(5, 0); !errors.Is(err, ErrBadSeq) {
		t.Errorf("gapped seq error = %v, want ErrBadSeq", err)
	}
	if _, err := sess.RewardSeq(2, math.NaN()); !errors.Is(err, ErrBadRequest) {
		t.Errorf("NaN reward error = %v, want ErrBadRequest", err)
	}
	if _, err := sess.RewardSeq(2, math.Inf(-1)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("-Inf reward error = %v, want ErrBadRequest", err)
	}
	// Rejected attempts must not burn the sequence number.
	if _, err := sess.RewardSeq(2, 0.25); err != nil {
		t.Fatalf("RewardSeq(2) after rejected attempts: %v", err)
	}
	// The legacy unsequenced path still works and leaves the cursor alone.
	if _, err := sess.Reward(0.5); err != nil {
		t.Fatalf("legacy Reward: %v", err)
	}
	if _, err := sess.RewardSeq(3, 0.1); err != nil {
		t.Fatalf("RewardSeq(3) after legacy reward: %v", err)
	}
}

// TestLearnFrozenCohortPinned drives the learning arm hard enough to force
// RCU swaps and demands the frozen control arm never notices: its decision
// trace must match an oracle over the construction-time model, period by
// period, and its rewards must never reach the learner.
func TestLearnFrozenCohortPinned(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{Learn: LearnConfig{
		Enabled: true, Manual: true, Seed: 3, SwapEvery: 1, Alpha: 0.5, Gamma: 0.9,
	}})
	learnSess, err := srv.CreateSession(SessionOptions{Seed: 1})
	if err != nil {
		t.Fatalf("CreateSession learning: %v", err)
	}
	fopts := SessionOptions{Seed: 2, Epsilon: 0.15, EpsilonDecay: 0.99, Cohort: CohortFrozen}
	frozenSess, err := srv.CreateSession(fopts)
	if err != nil {
		t.Fatalf("CreateSession frozen: %v", err)
	}
	want := newOracle(m, fopts)

	const periods = 60
	lobs, fobs := testObs(m, 11, periods), testObs(m, 12, periods)
	var seq uint64
	for i := 0; i < periods; i++ {
		if _, err := learnSess.Decide(lobs[i]); err != nil {
			t.Fatalf("learning decide %d: %v", i, err)
		}
		if i >= 1 { // a transition pair exists from the second period on
			seq++
			if _, err := learnSess.RewardSeq(seq, -0.1*float64(i%7)); err != nil {
				t.Fatalf("learning reward %d: %v", i, err)
			}
		}
		srv.LearnTick()
		got, err := frozenSess.Decide(fobs[i])
		if err != nil {
			t.Fatalf("frozen decide %d: %v", i, err)
		}
		if !slices.Equal(got, want.decide(fobs[i])) {
			t.Fatalf("frozen cohort diverged from the construction model at period %d", i)
		}
	}
	if srv.PolicyVersion() == 0 {
		t.Fatal("learner never published a swap; the frozen pin was not exercised")
	}

	// Frozen rewards land in the frozen ledger and apply zero updates.
	met := srv.MetricsSnapshot()
	updates := met.Learn.Updates
	for i, r := range []float64{1.0, 0.5} {
		if _, err := frozenSess.RewardSeq(uint64(i+1), r); err != nil {
			t.Fatalf("frozen reward: %v", err)
		}
	}
	if n := srv.LearnTick(); n != 0 {
		t.Errorf("frozen rewards applied %d updates, want 0", n)
	}
	met = srv.MetricsSnapshot()
	if met.Learn.Updates != updates {
		t.Errorf("updates moved %d -> %d on frozen rewards", updates, met.Learn.Updates)
	}
	if met.Learn.RewardsFrozen != 2 || met.Learn.RewardsLearning != periods-1 {
		t.Errorf("cohort ledgers frozen=%d learning=%d, want 2/%d",
			met.Learn.RewardsFrozen, met.Learn.RewardsLearning, periods-1)
	}

	// Meanwhile the live policy IS the learned one: a fresh greedy session
	// must match an oracle over a model built from the learner's snapshot.
	snap, ok := srv.LearnSnapshot()
	if !ok {
		t.Fatal("LearnSnapshot: learner missing")
	}
	learned, err := NewModel(m.cfg, snap)
	if err != nil {
		t.Fatalf("NewModel(learned): %v", err)
	}
	greedy, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession greedy: %v", err)
	}
	liveWant := newOracle(learned, SessionOptions{})
	for i, o := range testObs(m, 13, 20) {
		got, err := greedy.Decide(o)
		if err != nil {
			t.Fatalf("greedy decide %d: %v", i, err)
		}
		if !slices.Equal(got, liveWant.decide(o)) {
			t.Fatalf("live policy diverged from the learner snapshot at period %d", i)
		}
	}
}

// TestRunLearnSeededReplay pins the training-while-serving determinism
// contract: same config, bit-identical run — every device's decision trace
// and the learned checkpoint bytes — and the checkpoint builds a servable
// model (RunLearnReplay's verdict), while a different seed learns
// different tables.
func TestRunLearnSeededReplay(t *testing.T) {
	m := chaosTestModel(t) // DeviceStepper simulates soc.DefaultChipSpec
	cfg := LearnLoadConfig{
		FleetConfig: FleetConfig{Devices: 4, Periods: 60, Seed: 5, Epsilon: 0.25, RewardEvery: 5},
		TickEvery:   5, SwapEvery: 1,
	}
	a, err := RunLearnReplay(m, cfg)
	if err != nil {
		t.Fatalf("RunLearnReplay: %v", err)
	}
	if a.Swaps == 0 {
		t.Fatalf("run published nothing: updates=%d swaps=%d", a.Updates, a.Swaps)
	}

	other := cfg
	other.Seed = 6
	c, err := RunLearn(m, other)
	if err != nil {
		t.Fatalf("RunLearn other seed: %v", err)
	}
	if bytes.Equal(a.Checkpoint, c.Checkpoint) {
		t.Error("different seeds produced identical checkpoints; determinism test is vacuous")
	}
}

// TestCheckpointFinalWinsOverPeriodic races a periodic learner checkpoint
// against a drain: the drain-time final publication must wait for the
// in-flight periodic write, land last with the freshest tables, and latch
// the store shut against stragglers.
func TestCheckpointFinalWinsOverPeriodic(t *testing.T) {
	m := testModel(t, 3, 5)
	path := filepath.Join(t.TempDir(), "learned.ckpt")
	srv := newTestServer(t, m, nil, Config{
		CheckpointPath: path,
		Learn:          LearnConfig{Enabled: true, Manual: true, Seed: 1, SwapEvery: 1},
	})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := testObs(m, 7, 2)
	for _, o := range obs {
		if _, err := sess.Decide(o); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}

	var renames atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	real := osHooks()
	srv.fs = fsHooks{
		syncFile: func(f *os.File) error {
			// Hold only the first write (the periodic one) mid-syscall.
			gateOnce.Do(func() {
				close(entered)
				<-release
			})
			return real.syncFile(f)
		},
		rename: func(o, n string) error {
			renames.Add(1)
			return real.rename(o, n)
		},
		syncDir: real.syncDir,
	}

	periodicDone := make(chan error, 1)
	go func() { periodicDone <- srv.publishCheckpoint(false) }()
	<-entered

	// While the periodic write is stalled inside fsync, a reward lands and
	// a drain begins. The drain snapshot must carry that reward.
	if _, err := sess.RewardSeq(1, -1); err != nil {
		t.Fatalf("RewardSeq: %v", err)
	}
	srv.LearnTick()
	wantSnap, ok := srv.LearnSnapshot()
	if !ok {
		t.Fatal("LearnSnapshot: learner missing")
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	select {
	case err := <-drainDone:
		t.Fatalf("drain completed while the periodic checkpoint held the store: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-periodicDone; err != nil {
		t.Fatalf("periodic publish: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := renames.Load(); got != 2 {
		t.Errorf("renames = %d, want 2 (periodic then final)", got)
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := wantSnap.EncodeCheckpoint(&wantBuf); err != nil {
		t.Fatalf("encode want: %v", err)
	}
	if err := got.EncodeCheckpoint(&gotBuf); err != nil {
		t.Fatalf("encode got: %v", err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Error("final checkpoint does not carry the drain-time tables")
	}

	// The final latch: a straggling periodic tick after drain is a no-op.
	if err := srv.publishCheckpoint(false); err != nil {
		t.Fatalf("post-drain periodic publish: %v", err)
	}
	if got := renames.Load(); got != 2 {
		t.Errorf("straggler wrote the store: renames = %d, want 2", got)
	}
}

// TestLearnDecideAllocFree extends the package's zero-allocation pin to a
// learning server: a learning-arm session's steady-state decide must stay
// allocation-free even as the learner swaps tables under it.
func TestLearnDecideAllocFree(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := learnServer(t, m)
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := []Observation{{Utilization: 0.6, Level: 1}, {DemandRatio: 1.1, Level: 3}}
	levels := make([]int, 2)
	warm := func() {
		for i := 0; i < 10; i++ {
			if err := sess.DecideInto(obs, levels); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(when string) {
		if n := testing.AllocsPerRun(200, func() {
			if err := sess.DecideInto(obs, levels); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("DecideInto allocates %v times per call %s, want 0", n, when)
		}
	}
	swap := func(seq uint64) {
		if _, err := sess.RewardSeq(seq, -0.5); err != nil {
			t.Fatal(err)
		}
		srv.LearnTick()
	}

	warm()
	swap(1)
	if srv.PolicyVersion() == 0 {
		t.Fatal("no swap published; alloc pin would not cover the swapped path")
	}
	warm()
	measure("after the first table swap")
	v := srv.PolicyVersion()
	swap(2)
	if srv.PolicyVersion() == v {
		t.Fatal("second swap did not publish")
	}
	warm()
	measure("after a mid-stream table swap")
}

// TestLearnPublishAllocFree pins steady-state publication at zero
// allocations: once two publications have warmed the learner's spare
// arena, every reward plus tick rewrites a recycled arena in place instead
// of building a new table set — and still publishes a new version.
func TestLearnPublishAllocFree(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := learnServer(t, m)
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, o := range testObs(m, 3, 2) { // two periods complete the transition pair
		if _, err := sess.Decide(o); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	var seq uint64
	publish := func() {
		seq++
		v := srv.PolicyVersion()
		if _, err := sess.RewardSeq(seq, -0.25); err != nil {
			t.Fatal(err)
		}
		srv.LearnTick()
		if srv.PolicyVersion() != v+1 {
			t.Fatalf("publication %d did not advance the policy version past %d", seq, v)
		}
	}
	publish()
	publish()
	if n := testing.AllocsPerRun(50, publish); n != 0 {
		t.Fatalf("RewardSeq+LearnTick allocates %v times per publication, want 0", n)
	}
}

// TestLearnRecycleWaitsForGrace pins the grace rule: while a decide is
// parked inside the backend holding model A, publications never write A's
// arena (a fresh arena is allocated instead), and once the decide returns
// the next publication recycles A.
func TestLearnRecycleWaitsForGrace(t *testing.T) {
	m := testModel(t, 3, 5)
	sw := NewSWBackend(m)
	var armed atomic.Bool // the next Decide parks once armed
	entered := make(chan *Model, 1)
	release := make(chan struct{})
	sw.park = func(held *Model) {
		if armed.CompareAndSwap(true, false) {
			entered <- held
			<-release
		}
	}
	srv := newTestServer(t, m, sw, Config{Learn: LearnConfig{
		Enabled: true, Manual: true, Seed: 9, SwapEvery: 1, Alpha: 0.5,
	}})
	released := false
	defer func() {
		if !released {
			close(release) // unblock the parked decide if the test bailed early
		}
	}()
	learnSess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, o := range testObs(m, 3, 2) {
		if _, err := learnSess.Decide(o); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	var seq uint64
	publish := func() *Model {
		seq++
		if _, err := learnSess.RewardSeq(seq, -1); err != nil {
			t.Fatalf("RewardSeq: %v", err)
		}
		srv.LearnTick()
		return sw.live.Load()
	}
	publish()
	publish() // the learner now serves its own arena and holds a spare

	parkedSess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := testObs(m, 4, 1)[0]
	armed.Store(true)
	type result struct {
		levels []int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		lv, err := parkedSess.Decide(obs)
		done <- result{lv, err}
	}()
	a := <-entered
	if a != sw.live.Load() || a == m {
		t.Fatal("parked Decide does not hold the learner's live model")
	}
	aSnap := a.Snapshot()
	aModel, err := NewModel(m.cfg, aSnap)
	if err != nil {
		t.Fatalf("NewModel(A): %v", err)
	}
	wantLevels := newOracle(aModel, SessionOptions{}).decide(obs)

	seen := map[*Model]bool{m: true, a: true}
	first := publish()  // retires A into the spare slot
	second := publish() // A is still held: must not be rewritten
	if second == a || seen[second] || second == first || second.flat == a.flat {
		t.Fatal("second publication while A was held did not use a fresh arena")
	}
	if !snapshotsEqualBits(a.Snapshot(), aSnap) {
		t.Fatal("A's arena was rewritten while a Decide still held it")
	}

	close(release)
	released = true
	r := <-done
	if r.err != nil {
		t.Fatalf("parked Decide: %v", r.err)
	}
	if !slices.Equal(r.levels, wantLevels) {
		t.Errorf("parked Decide answered %v, want %v from A's tables", r.levels, wantLevels)
	}
	if next := publish(); next != a {
		t.Fatal("publication after the worker released A did not recycle A")
	}
	learned, _ := srv.LearnSnapshot()
	if !snapshotsEqualBits(a.Snapshot(), learned) {
		t.Fatal("recycled arena does not hold the learner's tables")
	}
}

// TestLearnAsyncStressRecycling runs the background learner with a
// publication per update while many sessions decide and reward at once,
// so recycled arenas are rewritten while concurrent decides read live
// ones. Every served level must be in range; the race detector (make
// race repeats this test) checks that no arena is written while read.
// Each device pauses once at its mid-run period until the learner has
// published, so the second half always decides against swapped tables,
// however the scheduler starved the learner in the first.
func TestLearnAsyncStressRecycling(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{Learn: LearnConfig{
		Enabled: true, Seed: 4, SwapEvery: 1, Alpha: 0.5, Gamma: 0.9,
	}})
	const devices, periods = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		sess, err := srv.CreateSession(SessionOptions{Seed: uint64(d), Epsilon: 0.1})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		obs := testObs(m, uint64(100+d), periods)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq uint64
			for i, o := range obs {
				if i == periods/2 {
					deadline := time.Now().Add(5 * time.Second)
					for srv.MetricsSnapshot().Learn.Swaps < 1 {
						if time.Now().After(deadline) {
							errs <- fmt.Errorf("paused at period %d: the learner published nothing in 5s", i)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				lv, err := sess.Decide(o)
				if err != nil {
					errs <- err
					return
				}
				for c, a := range lv {
					if a < 0 || a >= m.levels[c] {
						errs <- fmt.Errorf("period %d cluster %d: level %d out of [0,%d)", i, c, a, m.levels[c])
						return
					}
				}
				if i > 0 {
					seq++
					if _, err := sess.RewardSeq(seq, -float64(i%5)/4); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Close() // flushes the learner
	if met := srv.MetricsSnapshot(); met.Learn.Swaps < 2 || met.Learn.Updates == 0 {
		t.Fatalf("learner published %d swaps from %d updates; recycling was not exercised",
			met.Learn.Swaps, met.Learn.Updates)
	}
}

// TestLearnPeriodicCheckpointFailureLogged pins that a failing periodic
// learner checkpoint is reported, not dropped: the background learner
// records a checkpoint event naming the failure.
func TestLearnPeriodicCheckpointFailureLogged(t *testing.T) {
	m := testModel(t, 3, 5)
	path := filepath.Join(t.TempDir(), "learned.ckpt")
	real := osHooks()
	// The failing hooks go in at construction: the learner's 1 ms ticker
	// may publish before any later swap could land.
	srv, err := newServer(m, nil, Config{
		CheckpointPath: path,
		Learn:          LearnConfig{Enabled: true, Seed: 1, CheckpointEvery: time.Millisecond},
	}, fsHooks{
		syncFile: func(*os.File) error { return errors.New("injected fsync failure") },
		rename:   real.rename,
		syncDir:  real.syncDir,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(srv.Close)

	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range srv.Events().Events() {
			if e.Kind == "checkpoint" && strings.Contains(e.Msg, "injected fsync failure") {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("failed checkpoint left a file behind: %v", err)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint event recorded for the failing periodic learner checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLearnGraceRecheckSkipsRetiredModel pins the recheck half of the
// N-reader grace rule with a seam between a reader's load of the live
// model and its count increment: a reader that loaded A just before the
// learner retired A must not return A — the learner saw A's count at zero
// and may rewrite it — but the model that is live once it counts itself.
func TestLearnGraceRecheckSkipsRetiredModel(t *testing.T) {
	m := testModel(t, 3, 5)
	sw := NewSWBackend(m)
	var armed atomic.Bool // the next acquire stops after its load once armed
	loaded := make(chan *Model, 1)
	resume := make(chan struct{})
	sw.loaded = func(got *Model) {
		if armed.CompareAndSwap(true, false) {
			loaded <- got
			<-resume
		}
	}
	var held atomic.Pointer[Model]
	sw.park = func(got *Model) { held.Store(got) }
	srv := newTestServer(t, m, sw, Config{Learn: LearnConfig{
		Enabled: true, Manual: true, Seed: 9, SwapEvery: 1, Alpha: 0.5,
	}})
	resumed := false
	defer func() {
		if !resumed {
			close(resume)
		}
	}()
	learnSess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, o := range testObs(m, 3, 2) {
		if _, err := learnSess.Decide(o); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	var seq uint64
	publish := func() *Model {
		seq++
		if _, err := learnSess.RewardSeq(seq, -1); err != nil {
			t.Fatalf("RewardSeq: %v", err)
		}
		srv.LearnTick()
		return sw.live.Load()
	}
	a := publish()

	reader, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := testObs(m, 4, 1)[0]
	armed.Store(true)
	type result struct {
		levels []int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		lv, err := reader.Decide(obs)
		done <- result{lv, err}
	}()
	if got := <-loaded; got != a {
		t.Fatal("the stopped reader did not load the live model A")
	}
	b := publish() // retires A while the reader has loaded it but not counted itself
	if b == a {
		t.Fatal("publication did not retire A")
	}
	if n := a.readers.Load(); n != 0 {
		t.Fatalf("A has %d readers before the stopped reader counts itself, want 0", n)
	}
	bModel, err := NewModel(m.cfg, b.Snapshot())
	if err != nil {
		t.Fatalf("NewModel(B): %v", err)
	}
	want := newOracle(bModel, SessionOptions{}).decide(obs)

	close(resume)
	resumed = true
	r := <-done
	if r.err != nil {
		t.Fatalf("reader Decide: %v", r.err)
	}
	if got := held.Load(); got != b {
		t.Fatal("a reader that loaded A before it was retired returned A")
	}
	if !slices.Equal(r.levels, want) {
		t.Errorf("reader answered %v, want %v from the live model's tables", r.levels, want)
	}
	if na, nb := a.readers.Load(), b.readers.Load(); na != 0 || nb != 0 {
		t.Fatalf("reader counts after the decide: A %d, B %d, want 0 and 0", na, nb)
	}
}

// TestLearnMultiPeriodHistoryMatchesSingles pins the learner's history
// across frame shapes: a session deciding one 4-period frame must leave the
// learner the same transitions as its twin deciding the same 4 periods one
// at a time. Each twin rewards once and ticks; the learned tables must be
// bit-identical, and stay so after a following 1-period frame.
func TestLearnMultiPeriodHistoryMatchesSingles(t *testing.T) {
	const k = 4
	m := testModel(t, 3, 5)
	opts := SessionOptions{Epsilon: 0.3, EpsilonMin: 0.05, EpsilonDecay: 0.9, Seed: 21}
	srvA, srvB := learnServer(t, m), learnServer(t, m)
	sessA, err := srvA.CreateSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := srvB.CreateSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := testObs(m, 17, k+1)
	n := m.Clusters()
	check := func(when string, rewardSeq uint64) {
		t.Helper()
		for _, sess := range []*Session{sessA, sessB} {
			if _, err := sess.RewardSeq(rewardSeq, -0.75); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := srvA.LearnTick(), srvB.LearnTick(); a != n || b != n {
			t.Fatalf("%s: learners applied %d and %d transitions, want %d each", when, a, b, n)
		}
		snapA, _ := srvA.LearnSnapshot()
		snapB, _ := srvB.LearnSnapshot()
		if !snapshotsEqualBits(snapA, snapB) {
			t.Fatalf("%s: the learned tables differ between frame shapes", when)
		}
	}

	if _, err := sessA.DecideSeq(1, frameObs(steps, 0, k), make([]int, k*n)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < k; p++ {
		if _, err := sessB.DecideSeq(uint64(p+1), steps[p], make([]int, n)); err != nil {
			t.Fatal(err)
		}
	}
	check("after a 4-period frame", 1)

	for _, sess := range []*Session{sessA, sessB} {
		if _, err := sess.DecideSeq(k+1, steps[k], make([]int, n)); err != nil {
			t.Fatal(err)
		}
	}
	check("after a following 1-period frame", 2)
}
