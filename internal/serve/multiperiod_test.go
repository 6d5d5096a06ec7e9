package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
)

// frameObs concatenates steps[i..i+k) into one multi-period observation
// frame, the layout a K-period decide carries on the wire.
func frameObs(steps [][]Observation, i, k int) []Observation {
	var frame []Observation
	for p := 0; p < k; p++ {
		frame = append(frame, steps[i+p]...)
	}
	return frame
}

// TestDecideSeqMultiPeriodMatchesSingles is the server-side differential
// oracle: one session consuming K-period frames must produce byte-identical
// decisions — exploration draws, ε decay, and all — to a twin session fed
// the same observations one period at a time.
func TestDecideSeqMultiPeriodMatchesSingles(t *testing.T) {
	const k, steps = 4, 120
	m := testModel(t, 3, 5)
	opts := SessionOptions{Epsilon: 0.4, EpsilonMin: 0.02, EpsilonDecay: 0.95, Seed: 99}
	srvA := newTestServer(t, m, nil, Config{})
	srvB := newTestServer(t, m, nil, Config{})
	sessA, err := srvA.CreateSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := srvB.CreateSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq := testObs(m, 7, steps)
	n := m.Clusters()
	single := make([]int, n)
	multi := make([]int, k*n)
	for i := 0; i+k <= steps; i += k {
		if _, err := sessA.DecideSeq(uint64(i+1), frameObs(seq, i, k), multi); err != nil {
			t.Fatalf("frame at %d: %v", i, err)
		}
		for p := 0; p < k; p++ {
			if _, err := sessB.DecideSeq(uint64(i+p+1), seq[i+p], single); err != nil {
				t.Fatalf("single %d: %v", i+p, err)
			}
			for c := 0; c < n; c++ {
				if multi[p*n+c] != single[c] {
					t.Fatalf("period %d cluster %d: frame chose %d, single chose %d", i+p, c, multi[p*n+c], single[c])
				}
			}
		}
	}
	stA, stB := sessA.stats(), sessB.stats()
	if stA.Decisions != stB.Decisions {
		t.Fatalf("decision ledgers diverged: frames %d, singles %d", stA.Decisions, stB.Decisions)
	}
}

// TestDecideSeqMultiPeriodReplay pins whole-frame dedup: retrying a
// K-period frame's sequence number replays the cached K-period decision
// without advancing any session state, and anything that is not an exact
// whole-frame retry fails with ErrBadSeq.
func TestDecideSeqMultiPeriodReplay(t *testing.T) {
	const k = 3
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.5, EpsilonDecay: 0.9, EpsilonMin: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seq := testObs(m, 31, 2*k)
	n := m.Clusters()
	first := make([]int, k*n)
	if _, err := sess.DecideSeq(1, frameObs(seq, 0, k), first); err != nil {
		t.Fatal(err)
	}
	// Exact whole-frame retry: same seq, same period count.
	replayLv := make([]int, k*n)
	replayed, err := sess.DecideSeq(1, frameObs(seq, 0, k), replayLv)
	if err != nil || !replayed {
		t.Fatalf("whole-frame retry: replayed=%v err=%v", replayed, err)
	}
	for i := range first {
		if replayLv[i] != first[i] {
			t.Fatalf("slot %d: replay served %d, original %d", i, replayLv[i], first[i])
		}
	}
	// A single-period retry of a mid-frame seq is not a replay: the frame
	// was decided as a unit.
	if _, err := sess.DecideSeq(2, seq[1], make([]int, n)); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("mid-frame seq: %v, want ErrBadSeq", err)
	}
	// A retry with a different period count is not a replay either.
	if _, err := sess.DecideSeq(1, frameObs(seq, 0, 2), make([]int, 2*n)); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("wrong-width retry: %v, want ErrBadSeq", err)
	}
	// The next fresh frame follows the K consumed sequence numbers.
	next := make([]int, k*n)
	if replayed, err := sess.DecideSeq(k+1, frameObs(seq, k, k), next); err != nil || replayed {
		t.Fatalf("next frame: replayed=%v err=%v", replayed, err)
	}
	if st := sess.stats(); st.Decisions != 2*k {
		t.Fatalf("ledger counts %d decisions, want %d (replay must not double-count)", st.Decisions, 2*k)
	}
}

// TestDecideSeqMultiPeriodAllocFree pins the K-period server decide path
// at zero allocations once scratch is warm, like the single-period pin.
func TestDecideSeqMultiPeriodAllocFree(t *testing.T) {
	const k = 4
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.3, EpsilonDecay: 0.99, EpsilonMin: 0.05, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Clusters()
	obs := make([]Observation, k*n)
	for i := range obs {
		obs[i] = Observation{Utilization: 0.5, DemandRatio: 0.9, Level: i % 2}
	}
	levels := make([]int, k*n)
	var seq uint64
	for i := 0; i < 10; i++ { // warm the session before counting
		if _, err := sess.DecideSeq(seq+1, obs, levels); err != nil {
			t.Fatal(err)
		}
		seq += k
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sess.DecideSeq(seq+1, obs, levels); err != nil {
			t.Fatal(err)
		}
		seq += k
	}); n != 0 {
		t.Fatalf("K-period DecideSeq allocates %v times per call, want 0", n)
	}
}

// TestBinDecideManyMatchesSingles is the over-the-wire differential oracle,
// on both transports: a session shipping K periods per request must
// receive exactly the levels a twin session receives across K
// single-period requests.
func TestBinDecideManyMatchesSingles(t *testing.T) {
	const k, steps = 4, 80
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	bc := NewBinClient(startBinServer(t, srv))
	defer bc.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := NewClient(hs.URL)
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	opts := SessionOptions{Epsilon: 0.35, EpsilonMin: 0.02, EpsilonDecay: 0.96, Seed: 4242}
	for _, tr := range []struct {
		name string
		open func(context.Context, SessionOptions) (*RemoteSession, error)
	}{{"bin", bc.OpenSession}, {"json", hc.CreateSession}} {
		many, err := tr.open(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		one, err := tr.open(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq := testObs(m, 17, steps)
		n := m.Clusters()
		for i := 0; i+k <= steps; i += k {
			multi, err := many.DecideMany(ctx, frameObs(seq, i, k))
			if err != nil {
				t.Fatalf("%s: DecideMany at %d: %v", tr.name, i, err)
			}
			if len(multi) != k*n {
				t.Fatalf("%s: DecideMany returned %d levels, want %d", tr.name, len(multi), k*n)
			}
			for p := 0; p < k; p++ {
				single, err := one.Decide(ctx, seq[i+p])
				if err != nil {
					t.Fatalf("%s: single %d: %v", tr.name, i+p, err)
				}
				for c := 0; c < n; c++ {
					if multi[p*n+c] != single[c] {
						t.Fatalf("%s: period %d cluster %d: frame %d, single %d — framings diverged", tr.name, i+p, c, multi[p*n+c], single[c])
					}
				}
			}
		}
		stA, err := many.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		stB, err := one.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stA.Decisions != stB.Decisions {
			t.Fatalf("%s: decision ledgers diverged: frames %d, singles %d", tr.name, stA.Decisions, stB.Decisions)
		}
	}
}

// TestMirrorMultiPeriodAck pins the client mirror: acknowledging one
// K-period frame must leave the mirror in exactly the state K sequential
// single-period acks produce.
func TestMirrorMultiPeriodAck(t *testing.T) {
	const k = 5
	levels := []int{3, 5}
	opts := SessionOptions{Epsilon: 0.6, EpsilonMin: 0.05, EpsilonDecay: 0.9, Seed: 77}
	frames := newSessionMirror(opts, levels)
	singles := newSessionMirror(opts, levels)

	n := len(levels)
	obs := make([]Observation, k*n)
	lv := make([]int, k*n)
	for i := range obs {
		obs[i] = Observation{DemandRatio: float64(i) * 0.1, Level: i % 3}
		lv[i] = (i + 1) % 3
	}
	frames.ackDecide(obs, lv)
	for p := 0; p < k; p++ {
		singles.ackDecide(obs[p*n:(p+1)*n], lv[p*n:(p+1)*n])
	}

	a, b := frames.resumeState(), singles.resumeState()
	if a.Seq != b.Seq || a.Epsilon != b.Epsilon || a.Rng != b.Rng {
		t.Fatalf("mirror state diverged: frame %+v, singles %+v", a, b)
	}
	if len(a.LastLevels) != len(b.LastLevels) {
		t.Fatalf("last levels length %d vs %d", len(a.LastLevels), len(b.LastLevels))
	}
	for i := range a.LastLevels {
		if a.LastLevels[i] != b.LastLevels[i] {
			t.Fatalf("last levels diverged at %d: %d vs %d", i, a.LastLevels[i], b.LastLevels[i])
		}
	}
	for i := range a.PrevDemand {
		if a.PrevDemand[i] != b.PrevDemand[i] {
			t.Fatalf("prev demand diverged at %d: %v vs %v", i, a.PrevDemand[i], b.PrevDemand[i])
		}
	}
	if a.Decisions != b.Decisions {
		t.Fatalf("decision ledgers diverged: %d vs %d", a.Decisions, b.Decisions)
	}
}
