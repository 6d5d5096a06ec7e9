package serve

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"rlpm/internal/core"
	"rlpm/internal/wire"
)

// stats is the session's ledger, read under its lock.
func (s *Session) stats() wire.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// sessionDietFrame is one sequenced 4-period decide frame for the default
// chip's shape (LITTLE 8 OPPs, big 9), the frame a bin-k4 device sends.
func sessionDietFrame(t *testing.T) (*Model, []Observation) {
	t.Helper()
	m := testModel(t, 8, 9)
	return m, frameObs(testObs(m, 17, 4), 0, 4)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionLiveHeap pins what a greedy device session costs a server
// once it has decided its first frame: 5,000 sessions, each created and
// served one sequenced 4-period frame, hold at most 240 B of live heap
// apiece — the session, its demand history, its replay cache and its
// entry in the handle map. A session that kept a printed id, an inline
// exploration state or an int per cached level holds ~350 B.
func TestSessionLiveHeap(t *testing.T) {
	const n, budget = 5000, 240
	m, frame := sessionDietFrame(t)
	srv := newTestServer(t, m, nil, Config{})
	levels := make([]int, len(frame))
	sessions := make([]*Session, n)
	before := liveHeap()
	for i := range sessions {
		s, err := srv.CreateSession(SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DecideSeq(1, frame, levels); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	after := liveHeap()
	runtime.KeepAlive(sessions)
	per := (float64(after) - float64(before)) / n
	t.Logf("%.0f B of live heap per greedy session", per)
	if per > budget {
		t.Fatalf("a greedy session holds %.0f B of live heap after its first frame, want at most %d", per, budget)
	}
}

// TestSessionCreateAllocs pins the allocations a device costs the server
// up to its first answer: creating a session and deciding one sequenced
// 4-period frame allocate at most 3 objects (the session, its demand
// history, its replay cache), for a greedy and an exploring session
// alike — an exploring session carries its exploration state in the
// session's own allocation.
func TestSessionCreateAllocs(t *testing.T) {
	m, frame := sessionDietFrame(t)
	srv := newTestServer(t, m, nil, Config{})
	levels := make([]int, len(frame))
	for _, tc := range []struct {
		name string
		opts SessionOptions
	}{
		{"greedy", SessionOptions{}},
		{"exploring", SessionOptions{Epsilon: 0.2, EpsilonMin: 0.05, EpsilonDecay: 0.99, Seed: 7}},
	} {
		n := testing.AllocsPerRun(200, func() {
			s, err := srv.CreateSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.DecideSeq(1, frame, levels); err != nil {
				t.Fatal(err)
			}
		})
		if n > 3 {
			t.Errorf("%s session: create plus first decide allocate %v times, want at most 3", tc.name, n)
		}
	}
}

// TestReplayCacheTopLevel pins the replay cache's width: a retried frame
// on a cluster with core.MaxFlatActions levels replays the top level,
// MaxFlatActions-1, exactly. A one-bin state encoding keeps the table at
// one row per current level.
func TestReplayCacheTopLevel(t *testing.T) {
	const top = core.MaxFlatActions - 1
	cfg := core.DefaultConfig()
	cfg.State = core.StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}
	table := make([][]float64, cfg.State.States(core.MaxFlatActions))
	for s := range table {
		table[s] = make([]float64, core.MaxFlatActions)
		table[s][top] = 1
	}
	m, err := NewModel(cfg, core.Snapshot{State: cfg.State, Tables: [][][]float64{table}})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frame := []Observation{{Utilization: 0.5, DemandRatio: 0.9, Level: top}, {Utilization: 0.7, DemandRatio: 1.1, Level: 3}}
	first := make([]int, len(frame))
	if replayed, err := sess.DecideSeq(1, frame, first); err != nil || replayed {
		t.Fatalf("first frame: replayed=%v err=%v", replayed, err)
	}
	retry := make([]int, len(frame))
	if replayed, err := sess.DecideSeq(1, frame, retry); err != nil || !replayed {
		t.Fatalf("retried frame: replayed=%v err=%v", replayed, err)
	}
	if want := []int{top, top}; !slices.Equal(first, want) || !slices.Equal(retry, want) {
		t.Fatalf("decided %v, replayed %v, want %v both times", first, retry, want)
	}
}

// TestSessionIDRoundTrip pins the printed id: "s-" and the handle
// zero-padded to six digits, which handleOf parses back to the handle;
// a padded form of a seven-digit handle names no session.
func TestSessionIDRoundTrip(t *testing.T) {
	for _, h := range []uint64{1, 42, 999999, 1000000, 123456789, math.MaxUint64} {
		id := sessionID(h)
		if want := fmt.Sprintf("s-%06d", h); id != want {
			t.Errorf("sessionID(%d) = %q, want %q", h, id, want)
		}
		if got := handleOf(id); got != h {
			t.Errorf("handleOf(%q) = %d, want %d", id, got, h)
		}
	}
	if got := handleOf("s-01000000"); got != 0 {
		t.Errorf("handleOf of a padded seven-digit handle = %d, want 0", got)
	}
}

// BenchmarkSessionDecideInto times one two-cluster greedy decide served
// inline: validation, admission, the session lock, state encoding and two
// lookups on the pinned policy.
func BenchmarkSessionDecideInto(b *testing.B) {
	m := testModel(b, 3, 4)
	srv, err := New(m, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	obs := []Observation{{Utilization: 0.6, Level: 1}, {DemandRatio: 1.1, Level: 3}}
	levels := make([]int, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.DecideInto(obs, levels); err != nil {
			b.Fatal(err)
		}
	}
}
