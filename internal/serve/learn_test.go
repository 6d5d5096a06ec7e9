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

	"rlpm/internal/core"
)

// learnServer builds an in-process learning server with per-update
// publication: every reward that forms transitions applies them and swaps
// the tables before RewardSeq returns.
func learnServer(t *testing.T, m *Model) *Server {
	t.Helper()
	return newTestServer(t, m, nil, Config{Learn: LearnConfig{Enabled: true, SwapEvery: 1}})
}

// seriesValue reads one series from the server's registry, failing the
// test when the server does not export it.
func seriesValue(t *testing.T, srv *Server, name, labels string) uint64 {
	t.Helper()
	met := srv.Registry().Snapshot()
	ss := met.Find(name, labels)
	if ss == nil {
		t.Fatalf("no series %s{%s}", name, labels)
	}
	return uint64(ss.Value)
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
	rewards, deduped := seriesValue(t, srv, "serve_rewards_total", ""), seriesValue(t, srv, "serve_rewards_deduped_total", "")
	if rewards != 1 || deduped != 1 {
		t.Errorf("rewards=%d deduped=%d, want 1/1", rewards, deduped)
	}
	// The replay applied no second batch of transitions: exactly one
	// Q-update per cluster reached the learner.
	if n := seriesValue(t, srv, "learn_updates_total", ""); n != uint64(m.Clusters()) {
		t.Errorf("learner applied %d transitions, want %d", n, m.Clusters())
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
	if _, err := sess.RewardSeq(0, 0.5); err != nil {
		t.Fatalf("legacy unsequenced reward: %v", err)
	}
	if _, err := sess.RewardSeq(3, 0.1); err != nil {
		t.Fatalf("RewardSeq(3) after legacy reward: %v", err)
	}
}

// TestLearnInlineMatchesPolicy pins the inline learning step. One session
// decides and posts sequenced rewards, one of them twice; the learner's
// tables must then be bit-equal to a copy of the served policy that
// learned the transitions the session formed, in order, each once. Then 8
// sessions post rewards at once, and the learner must count every
// transition they formed: learning is lossless.
func TestLearnInlineMatchesPolicy(t *testing.T) {
	m := testModel(t, 3, 5)
	n := m.Clusters()
	srv := learnServer(t, m)
	sess, err := srv.CreateSession(SessionOptions{Seed: 9, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.PolicyFromTables(m.cfg, m.cfg.State, m.flat)
	if err != nil {
		t.Fatal(err)
	}
	prevDemand := make([]float64, n)
	var prev, cur []stateAction
	var seq uint64
	for p, obs := range testObs(m, 31, 40) {
		levels, err := sess.Decide(obs)
		if err != nil {
			t.Fatal(err)
		}
		prev, cur = cur, make([]stateAction, n)
		for i := range obs {
			cur[i] = stateAction{m.cfg.EncodeState(policyObs(&obs[i], m.levels[i]), prevDemand[i]), levels[i]}
			prevDemand[i] = obs[i].DemandRatio
		}
		if p%3 != 1 {
			continue
		}
		seq++
		r := -0.1 * float64(p%7)
		if _, err := sess.RewardSeq(seq, r); err != nil {
			t.Fatal(err)
		}
		if seq == 4 { // a lost-ack retry applies nothing
			if _, err := sess.RewardSeq(seq, r); err != nil {
				t.Fatal(err)
			}
		}
		for i := range prev {
			if _, err := ref.Learn(core.Transition{Cluster: i, State: prev[i].state, Action: prev[i].action, NextState: cur[i].state, Reward: r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := learnedSnapshot(srv)
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqualBits(got, want) {
		t.Fatal("the learner's tables differ from the policy that learned the session's transitions")
	}
	if u, want := seriesValue(t, srv, "learn_updates_total", ""), seq*uint64(n); u != want {
		t.Fatalf("learn_updates_total %d after %d rewards, want %d", u, seq, want)
	}

	const sessions, periods = 8, 30
	srv = learnServer(t, m)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for d := 0; d < sessions; d++ {
		sess, err := srv.CreateSession(SessionOptions{Seed: uint64(d), Epsilon: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		obs := testObs(m, uint64(50+d), periods)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range obs {
				if _, err := sess.Decide(o); err != nil {
					errs <- err
					return
				}
				if _, err := sess.RewardSeq(uint64(i+1), -0.25); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A session's first reward finds one decided period and forms nothing.
	if u, want := seriesValue(t, srv, "learn_updates_total", ""), uint64(sessions*(periods-1)*n); u != want {
		t.Fatalf("learn_updates_total %d, want %d transitions formed", u, want)
	}
}

// TestLearnFrozenCohortPinned drives the learning arm hard enough to force
// RCU swaps and demands the frozen control arm never notices: its decision
// trace must match an oracle over the construction-time model, period by
// period, and its rewards must never reach the learner.
func TestLearnFrozenCohortPinned(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := learnServer(t, m)
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
		got, err := frozenSess.Decide(fobs[i])
		if err != nil {
			t.Fatalf("frozen decide %d: %v", i, err)
		}
		if !slices.Equal(got, want.decide(fobs[i])) {
			t.Fatalf("frozen cohort diverged from the construction model at period %d", i)
		}
	}
	if seriesValue(t, srv, "serve_policy_version", "") == 0 {
		t.Fatal("learner never published a swap; the frozen pin was not exercised")
	}

	// Frozen rewards land in the frozen ledger and apply zero updates.
	updates := seriesValue(t, srv, "learn_updates_total", "")
	for i, r := range []float64{1.0, 0.5} {
		if _, err := frozenSess.RewardSeq(uint64(i+1), r); err != nil {
			t.Fatalf("frozen reward: %v", err)
		}
	}
	if n := seriesValue(t, srv, "learn_updates_total", ""); n != updates {
		t.Errorf("updates moved %d -> %d on frozen rewards", updates, n)
	}
	frozen := seriesValue(t, srv, "serve_cohort_rewards_total", `cohort="frozen"`)
	learning := seriesValue(t, srv, "serve_cohort_rewards_total", `cohort="learning"`)
	if frozen != 2 || learning != periods-1 {
		t.Errorf("cohort ledgers frozen=%d learning=%d, want 2/%d", frozen, learning, periods-1)
	}

	// Meanwhile the live policy IS the learned one: a fresh greedy session
	// must match an oracle over a model built from the learner's snapshot.
	learned, err := NewModel(m.cfg, learnedSnapshot(srv))
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
// different tables. The run keeps the harness's default SwapEvery, so it
// also pins that a short run publishes.
func TestRunLearnSeededReplay(t *testing.T) {
	m := chaosTestModel(t) // DeviceStepper simulates soc.DefaultChipSpec
	cfg := LearnLoadConfig{
		FleetConfig: FleetConfig{Devices: 4, Periods: 60, Seed: 5, Epsilon: 0.25, RewardEvery: 5},
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
		Learn:          LearnConfig{Enabled: true, SwapEvery: 1},
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
	go func() {
		_, err := srv.publishCheckpoint(false)
		periodicDone <- err
	}()
	<-entered

	// While the periodic write is stalled inside fsync, a reward lands and
	// a drain begins. The drain snapshot must carry that reward.
	if _, err := sess.RewardSeq(1, -1); err != nil {
		t.Fatalf("RewardSeq: %v", err)
	}
	wantSnap := learnedSnapshot(srv)
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

	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatalf("loading the final checkpoint: %v", err)
	}
	if !snapshotsEqualBits(wantSnap, got) {
		t.Error("final checkpoint does not carry the drain-time tables")
	}

	// The final latch: a straggling periodic tick after drain is refused
	// and writes nothing.
	if _, err := srv.publishCheckpoint(false); !errors.Is(err, errFinalPublished) {
		t.Fatalf("post-drain periodic publish: %v, want errFinalPublished", err)
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
	}

	warm()
	swap(1)
	if seriesValue(t, srv, "serve_policy_version", "") == 0 {
		t.Fatal("no swap published; alloc pin would not cover the swapped path")
	}
	warm()
	measure("after the first table swap")
	v := seriesValue(t, srv, "serve_policy_version", "")
	swap(2)
	if seriesValue(t, srv, "serve_policy_version", "") == v {
		t.Fatal("second swap did not publish")
	}
	warm()
	measure("after a mid-stream table swap")
}

// TestLearnPublishAllocFree pins steady-state publication at zero
// allocations: once two publications have warmed the learner's spare
// arena, every reward rewrites a recycled arena in place instead of
// building a new table set — and still publishes a new version. It reads
// the version from the counter itself: a registry snapshot allocates.
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
		v := srv.learner.swaps.Load()
		if _, err := sess.RewardSeq(seq, -0.25); err != nil {
			t.Fatal(err)
		}
		if srv.learner.swaps.Load() != v+1 {
			t.Fatalf("publication %d did not advance the policy version past %d", seq, v)
		}
	}
	publish()
	publish()
	if n := testing.AllocsPerRun(50, publish); n != 0 {
		t.Fatalf("RewardSeq allocates %v times per publication, want 0", n)
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
	srv := newTestServer(t, m, sw, Config{Learn: LearnConfig{Enabled: true, SwapEvery: 1}})
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
	learned := learnedSnapshot(srv)
	if !snapshotsEqualBits(a.Snapshot(), learned) {
		t.Fatal("recycled arena does not hold the learner's tables")
	}
}

// TestLearnAsyncStressRecycling publishes per update while many sessions
// decide and reward at once: the reward callers apply and publish
// concurrently, so recycled arenas are rewritten while concurrent decides
// read live ones. Every served level must be in range; the race detector
// (make race repeats this test) checks that no arena is written while
// read. Each device's own rewards publish from its second period on, so
// its later decides read swapped tables.
func TestLearnAsyncStressRecycling(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := learnServer(t, m)
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
	swaps, updates := seriesValue(t, srv, "learn_swaps_total", ""), seriesValue(t, srv, "learn_updates_total", "")
	if swaps < 2 || updates == 0 {
		t.Fatalf("learner published %d swaps from %d updates; recycling was not exercised", swaps, updates)
	}
}

// TestLearnPeriodicCheckpointFailureLogged pins that a failing periodic
// learner checkpoint is reported, not dropped: the checkpoint ticker
// records a checkpoint event naming the failure.
func TestLearnPeriodicCheckpointFailureLogged(t *testing.T) {
	m := testModel(t, 3, 5)
	path := filepath.Join(t.TempDir(), "learned.ckpt")
	real := osHooks()
	// The failing hooks go in at construction: the learner's 1 ms ticker
	// may publish before any later swap could land.
	srv, err := newServer(m, nil, Config{
		CheckpointPath: path,
		Learn:          LearnConfig{Enabled: true, CheckpointEvery: time.Millisecond},
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
	srv := newTestServer(t, m, sw, Config{Learn: LearnConfig{Enabled: true, SwapEvery: 1}})
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
// at a time. Each twin rewards once; the learned tables must be
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
		want := rewardSeq * uint64(n)
		a, b := seriesValue(t, srvA, "learn_updates_total", ""), seriesValue(t, srvB, "learn_updates_total", "")
		if a != want || b != want {
			t.Fatalf("%s: learners applied %d and %d transitions in all, want %d each", when, a, b, want)
		}
		if !snapshotsEqualBits(learnedSnapshot(srvA), learnedSnapshot(srvB)) {
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

// learnedSnapshot copies srv's learned tables out in nested form.
func learnedSnapshot(srv *Server) core.Snapshot {
	learned := srv.model.flat.NewLike()
	srv.learner.tablesInto(learned)
	return core.Snapshot{State: srv.model.cfg.State, Tables: learned.Tables()}
}

// TestLearnServerBuildAllocs pins that a learning server hydrates its
// shadow policy straight from the served arena. Building one allocates its
// shadow tables (one arena's worth) and about 10 KB of metrics more than a
// frozen server; any other copy of the tables on the way, nested rows or a
// flat copy, would take the difference past two arenas.
func TestLearnServerBuildAllocs(t *testing.T) {
	m, _, arena := servedCheckpoint(t)
	build := func(cfg Config) func() {
		return func() {
			srv, err := New(m, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Close()
		}
	}
	frozen := allocBytes(build(Config{}))
	learning := allocBytes(build(Config{Learn: LearnConfig{Enabled: true}}))
	t.Logf("a learning server allocates %d B, a frozen one %d B, for a %d B arena", learning, frozen, arena)
	if learning >= frozen+2*arena {
		t.Errorf("a learning server allocates %d B more than a frozen one, want less than two %d B arenas", learning-frozen, arena)
	}
}

// TestLearnPublishCheckpointAllocs pins a learning server's saves: each
// copies the shadow tables into the learner's one save arena, allocated at
// the first save, and streams that arena.
func TestLearnPublishCheckpointAllocs(t *testing.T) {
	m, path, _ := servedCheckpoint(t)
	srv := newTestServer(t, m, nil, Config{CheckpointPath: path, Learn: LearnConfig{Enabled: true}})
	checkSecondPublishAllocs(t, srv)
}

// TestLearnCheckpointTickerRace saves on the learner's 1 ms checkpoint
// ticker while sessions decide and their rewards apply and publish, so the
// save arena's copy, the learner's updates and the RCU swaps run at once.
// Every ticker save must succeed, and the drain's final checkpoint must
// hold the learner's tables once every reward has applied.
func TestLearnCheckpointTickerRace(t *testing.T) {
	const devices, periods = 4, 60
	m := testModel(t, 3, 5)
	path := filepath.Join(t.TempDir(), "learned.ckpt")
	srv := newTestServer(t, m, nil, Config{
		CheckpointPath: path,
		Learn:          LearnConfig{Enabled: true, SwapEvery: 1, CheckpointEvery: time.Millisecond},
	})
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		sess, err := srv.CreateSession(SessionOptions{Seed: uint64(d), Epsilon: 0.2})
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		obs := testObs(m, uint64(300+d), periods)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range obs {
				if _, err := sess.Decide(o); err != nil {
					errs <- err
					return
				}
				if i > 0 {
					if _, err := sess.RewardSeq(uint64(i), -float64(i%3)/2); err != nil {
						errs <- err
						return
					}
				}
				if i%10 == 0 {
					time.Sleep(time.Millisecond) // let the ticker land between rewards
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The fleet ran for several ticks; on a loaded host, wait for one.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		saves := 0
		for _, e := range srv.Events().Events() {
			if e.Kind == "checkpoint" {
				if !strings.HasPrefix(e.Msg, "saved ") {
					t.Fatalf("ticker save failed: %s", e.Msg)
				}
				saves++
			}
		}
		if saves > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint ticker saved nothing")
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatalf("loading the final checkpoint: %v", err)
	}
	if !snapshotsEqualBits(got, learnedSnapshot(srv)) {
		t.Fatal("the final checkpoint does not hold the learner's tables")
	}
}
