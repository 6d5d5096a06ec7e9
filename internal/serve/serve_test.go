package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/rng"
	"rlpm/internal/sim"
)

// testSnapshot builds a deterministic snapshot with the given per-cluster
// OPP counts; table values come from a fixed rng stream so every test sees
// the same policy.
func testSnapshot(t testing.TB, levels ...int) (core.Config, core.Snapshot) {
	t.Helper()
	cfg := core.DefaultConfig()
	snap := core.Snapshot{State: cfg.State}
	r := rng.New(42)
	for _, n := range levels {
		states := cfg.State.States(n)
		table := make([][]float64, states)
		for s := range table {
			row := make([]float64, n)
			for a := range row {
				row[a] = r.Float64()*2 - 1
			}
			table[s] = row
		}
		snap.Tables = append(snap.Tables, table)
	}
	return cfg, snap
}

// snapshotsEqualBits compares two snapshots through their canonical
// checkpoint encoding, which stores every float64 as its bit pattern.
func snapshotsEqualBits(a, b core.Snapshot) bool {
	var ab, bb bytes.Buffer
	return a.EncodeCheckpoint(&ab) == nil && b.EncodeCheckpoint(&bb) == nil && bytes.Equal(ab.Bytes(), bb.Bytes())
}

func testModel(t testing.TB, levels ...int) *Model {
	t.Helper()
	cfg, snap := testSnapshot(t, levels...)
	m, err := NewModel(cfg, snap)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// testObs generates a deterministic observation stream for one device:
// steps control periods over the model's cluster count.
func testObs(m *Model, seed uint64, steps int) [][]Observation {
	r := rng.New(seed)
	out := make([][]Observation, steps)
	for i := range out {
		obs := make([]Observation, m.Clusters())
		for c := range obs {
			obs[c] = Observation{
				Utilization: r.Float64(),
				DemandRatio: 1.5 * r.Float64(),
				QoS:         1.2 * r.Float64(),
				ClusterQoS:  1.2 * r.Float64(),
				Critical:    r.Float64() < 0.1,
				Level:       r.Intn(m.levels[c]),
			}
		}
		out[i] = obs
	}
	return out
}

// oracleDecide replicates Session.Decide's device-local logic serially:
// encode with trend history, explore with the session rng in cluster order,
// exploit via the frozen model, decay ε after the period.
type oracle struct {
	m          *Model
	eps        float64
	epsMin     float64
	epsDecay   float64
	r          *rng.Rand
	prevDemand []float64
}

func newOracle(m *Model, opts SessionOptions) *oracle {
	return &oracle{
		m: m, eps: opts.Epsilon, epsMin: opts.EpsilonMin, epsDecay: opts.EpsilonDecay,
		r: rng.New(opts.Seed), prevDemand: make([]float64, m.Clusters()),
	}
}

func (o *oracle) decide(obs []Observation) []int {
	levels := make([]int, len(obs))
	for i, ob := range obs {
		so := sim.Observation{
			Utilization: ob.Utilization, DemandRatio: ob.DemandRatio,
			QoS: ob.QoS, ClusterQoS: ob.ClusterQoS, Critical: ob.Critical,
			Level: ob.Level, NumLevels: o.m.levels[i],
		}
		state := o.m.cfg.EncodeState(so, o.prevDemand[i])
		o.prevDemand[i] = ob.DemandRatio
		if o.eps > 0 && o.r.Float64() < o.eps {
			levels[i] = o.r.Intn(o.m.levels[i])
			continue
		}
		levels[i] = o.m.Greedy(i, state)
	}
	if o.eps > 0 && o.epsDecay > 0 {
		o.eps *= o.epsDecay
		if o.eps < o.epsMin {
			o.eps = o.epsMin
		}
	}
	return levels
}

func newTestServer(t *testing.T, m *Model, backend *SWBackend, cfg Config) *Server {
	t.Helper()
	srv, err := New(m, backend, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestConfigValidate pins the refusals New makes before it builds
// anything: Config.Validate's, and a learner over a SARSA model, whose
// reward-paired transitions carry no next action.
func TestConfigValidate(t *testing.T) {
	learn := func(every time.Duration) LearnConfig {
		return LearnConfig{Enabled: true, CheckpointEvery: every}
	}
	ckpt := filepath.Join(t.TempDir(), "p.ckpt")
	for _, c := range []struct {
		name    string
		algo    core.Algorithm // the model's TD rule
		cfg     Config
		wantErr string // "" for a valid config
	}{
		{"zero", "", Config{}, ""},
		{"negative batch", "", Config{MaxBatch: -1}, "negative MaxBatch"},
		{"negative ttl", "", Config{SessionTTL: -time.Second}, "negative SessionTTL"},
		{"negative learn swap", "", Config{Learn: LearnConfig{Enabled: true, SwapEvery: -3}}, "negative learn SwapEvery"},
		{"periodic learn checkpoint", "", Config{CheckpointPath: ckpt, Learn: learn(time.Second)}, ""},
		{"periodic learn checkpoint without a path", "", Config{Learn: learn(time.Second)}, "needs a CheckpointPath"},
		{"learning over double-q", core.DoubleQ, Config{Learn: LearnConfig{Enabled: true}}, ""},
		{"frozen sarsa", core.SARSA, Config{}, ""},
		{"learning over sarsa", core.SARSA, Config{Learn: LearnConfig{Enabled: true}}, "not SARSA"},
	} {
		cfg, snap := testSnapshot(t, 3)
		cfg.Algorithm = c.algo
		m, err := NewModel(cfg, snap)
		if err != nil {
			t.Fatalf("%s: NewModel: %v", c.name, err)
		}
		srv, err := New(m, nil, c.cfg)
		if err == nil {
			srv.Close()
		}
		if (err == nil) != (c.wantErr == "") || err != nil && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: New = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestModelGreedyTiesBreakLow(t *testing.T) {
	cfg := core.DefaultConfig()
	n := 3
	states := cfg.State.States(n)
	table := make([][]float64, states)
	for s := range table {
		table[s] = []float64{1, 1, 1} // all tied: index 0 must win
	}
	m, err := NewModel(cfg, core.Snapshot{State: cfg.State, Tables: [][][]float64{table}})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	for s := 0; s < states; s++ {
		if got := m.Greedy(0, s); got != 0 {
			t.Fatalf("state %d: tie broke to %d, want 0", s, got)
		}
	}
}

func TestNewModelRejectsMalformedSnapshots(t *testing.T) {
	cfg, snap := testSnapshot(t, 3)
	cases := map[string]func() (core.Config, core.Snapshot){
		"no tables": func() (core.Config, core.Snapshot) {
			return cfg, core.Snapshot{State: cfg.State}
		},
		"state mismatch": func() (core.Config, core.Snapshot) {
			s2 := snap
			s2.State.LoadBins++
			return cfg, s2
		},
		"wrong state count": func() (core.Config, core.Snapshot) {
			s2 := core.Snapshot{State: cfg.State, Tables: [][][]float64{snap.Tables[0][:4]}}
			return cfg, s2
		},
		"ragged row": func() (core.Config, core.Snapshot) {
			tbl := make([][]float64, len(snap.Tables[0]))
			copy(tbl, snap.Tables[0])
			tbl[1] = tbl[1][:2]
			return cfg, core.Snapshot{State: cfg.State, Tables: [][][]float64{tbl}}
		},
		"256 actions": func() (core.Config, core.Snapshot) {
			// One action wider than the flat arena's packed key carries;
			// single-bin states keep the table small.
			c := cfg
			c.State = core.StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}
			tbl := make([][]float64, c.State.States(256))
			for i := range tbl {
				tbl[i] = make([]float64, 256)
			}
			return c, core.Snapshot{State: c.State, Tables: [][][]float64{tbl}}
		},
	}
	for name, mk := range cases {
		c, s := mk()
		if _, err := NewModel(c, s); err == nil {
			t.Errorf("%s: NewModel accepted a malformed snapshot", name)
		}
	}
}

// TestModelSnapshotRoundTrip pins the arena as the model's only copy of
// its tables: Snapshot rebuilds them bit-exactly (signed zeros and NaN
// payloads included), NewModel over that snapshot rebuilds the same model,
// and the snapshot is a deep copy the model never shares.
func TestModelSnapshotRoundTrip(t *testing.T) {
	cfg, snap := testSnapshot(t, 3, 5)
	snap.Tables[0][2][1] = math.Copysign(0, -1)
	snap.Tables[1][7][4] = math.Float64frombits(0x7ff8000000000123)
	m, err := NewModel(cfg, snap)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	got := m.Snapshot()
	if !snapshotsEqualBits(got, snap) {
		t.Fatal("Model.Snapshot differs from the snapshot the model was built from")
	}
	m2, err := NewModel(cfg, got)
	if err != nil {
		t.Fatalf("NewModel(Snapshot()): %v", err)
	}
	if !snapshotsEqualBits(m2.Snapshot(), snap) {
		t.Fatal("Snapshot → NewModel → Snapshot is not bit-exact")
	}
	got.Tables[0][0][0]++
	if math.Float64bits(m.Snapshot().Tables[0][0][0]) != math.Float64bits(snap.Tables[0][0][0]) {
		t.Fatal("writing a snapshot reached the model's arena")
	}
}

func TestSessionGreedyMatchesOracle(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	orc := newOracle(m, SessionOptions{})
	for i, obs := range testObs(m, 7, 200) {
		got, err := sess.Decide(obs)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want := orc.decide(obs)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("step %d cluster %d: server %d, oracle %d", i, c, got[c], want[c])
			}
		}
	}
}

func TestSessionExplorationIsDeviceLocal(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	opts := SessionOptions{Epsilon: 0.5, EpsilonMin: 0.05, EpsilonDecay: 0.99, Seed: 11}

	// Run the same session config twice with a perturbing neighbour in
	// between: its decision stream must be identical both times.
	run := func(perturb bool) [][]int {
		sess, err := srv.CreateSession(opts)
		if err != nil {
			t.Fatalf("CreateSession: %v", err)
		}
		var neighbour *Session
		if perturb {
			neighbour, err = srv.CreateSession(SessionOptions{Epsilon: 0.9, Seed: 99})
			if err != nil {
				t.Fatalf("CreateSession: %v", err)
			}
		}
		var streams [][]int
		for _, obs := range testObs(m, 3, 100) {
			if neighbour != nil {
				if _, err := neighbour.Decide(obs); err != nil {
					t.Fatalf("neighbour decide: %v", err)
				}
			}
			lv, err := sess.Decide(obs)
			if err != nil {
				t.Fatalf("decide: %v", err)
			}
			streams = append(streams, lv)
		}
		if _, err := srv.CloseSessionByHandle(sess.handle, 0); err != nil {
			t.Fatalf("close: %v", err)
		}
		return streams
	}
	a, b := run(false), run(true)
	for i := range a {
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				t.Fatalf("step %d cluster %d: %d without neighbour, %d with", i, c, a[i][c], b[i][c])
			}
		}
	}
}

func TestSessionDecideValidation(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := sess.Decide([]Observation{{}}); err == nil {
		t.Error("wrong observation count accepted")
	}
	if _, err := sess.Decide([]Observation{{Level: 3}, {}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := srv.CreateSession(SessionOptions{Epsilon: 1.5}); err == nil {
		t.Error("epsilon > 1 accepted")
	}
	if _, err := srv.CreateSession(SessionOptions{Epsilon: 0.1, EpsilonMin: 0.5}); err == nil {
		t.Error("epsilon floor above epsilon accepted")
	}
}

func TestServerSessionLifecycle(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := testObs(m, 1, 1)[0]
	if _, err := sess.Decide(obs); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if _, err := sess.RewardSeq(0, -1.5); err != nil {
		t.Fatalf("reward: %v", err)
	}
	st, err := srv.CloseSessionByHandle(sess.handle, 0)
	if err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if st.Decisions != 1 || st.Rewards != 1 || st.MeanReward != -1.5 {
		t.Fatalf("final ledger %+v, want 1 decision, 1 reward, mean -1.5", st)
	}
	if _, err := sess.Decide(obs); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("decide after close: %v, want ErrSessionClosed", err)
	}
	if _, err := srv.SessionByHandleEpoch(sess.handle, 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("lookup after close: %v, want ErrNoSession", err)
	}
	if _, err := srv.CloseSessionByHandle(handleOf("nope"), 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("close unknown: %v, want ErrNoSession", err)
	}
}

func TestServerCloseFailsPendingWork(t *testing.T) {
	m := testModel(t, 3, 5)
	srv, err := New(m, nil, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := sess.Decide(testObs(m, 1, 1)[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("decide after server close: %v, want ErrServerClosed", err)
	}
	if _, err := srv.CreateSession(SessionOptions{}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("create after server close: %v, want ErrServerClosed", err)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{CheckpointPath: filepath.Join(dir, "m.ckpt")})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewClient(hs.URL)
	ctx := context.Background()

	if err := client.WaitHealthy(ctx, 5*time.Second); err != nil {
		t.Fatalf("WaitHealthy: %v", err)
	}
	sess, err := client.CreateSession(ctx, SessionOptions{Seed: 3})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.NumClusters() != 2 || sess.NumLevels[0] != 3 || sess.NumLevels[1] != 5 {
		t.Fatalf("session chip description %d clusters %v levels", sess.NumClusters(), sess.NumLevels)
	}

	orc := newOracle(m, SessionOptions{Seed: 3})
	for i, obs := range testObs(m, 21, 25) {
		levels, err := sess.Decide(ctx, obs)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		want := orc.decide(obs)
		for c := range want {
			if levels[c] != want[c] {
				t.Fatalf("step %d cluster %d: wire %d, oracle %d", i, c, levels[c], want[c])
			}
		}
	}
	if _, err := sess.Reward(ctx, -0.25); err != nil {
		t.Fatalf("reward: %v", err)
	}

	var cr CheckpointResponse
	if err := client.do(ctx, http.MethodPost, "/v1/checkpoint", nil, &cr); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cr.Bytes <= 0 {
		t.Fatalf("checkpoint reported %d bytes", cr.Bytes)
	}
	if _, err := LoadModel(cr.Path, core.DefaultConfig()); err != nil {
		t.Fatalf("reloading the checkpoint the server wrote: %v", err)
	}

	met := srv.Registry().Snapshot()
	live, decisions, rewards := met.Value("serve_sessions", ""), met.Value("serve_decisions_total", ""), met.Value("serve_rewards_total", "")
	if live != 1 || decisions != 25 || rewards != 1 {
		t.Fatalf("%v live sessions, %v decisions, %v rewards; want 1, 25, 1", live, decisions, rewards)
	}
	if n := met.Value("serve_lookups_total", ""); n != 25*2 {
		t.Fatalf("serve_lookups_total %v, want 50 (greedy over 2 clusters)", n)
	}
	batches, lookups := met.Value("serve_batches_total", ""), met.Value("serve_batch_lookups_total", "")
	if batches == 0 || lookups < batches {
		t.Fatalf("batch counters: %v lookups over %v batches", lookups, batches)
	}
	if age := met.Value("serve_checkpoint_age_seconds", ""); age < 0 {
		t.Fatalf("checkpoint age %.2f after a save", age)
	}

	st, err := sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != 25 {
		t.Fatalf("final ledger %+v", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{}) // no checkpoint path
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	status := func(method, path, body string) int {
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("do: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("POST", "/v1/sessions/s-999999/decide", `{"observations":[{}]}`); got != http.StatusNotFound {
		t.Errorf("unknown session decide: %d, want 404", got)
	}
	if got := status("DELETE", "/v1/sessions/s-999999", ""); got != http.StatusNotFound {
		t.Errorf("unknown session delete: %d, want 404", got)
	}
	if got := status("DELETE", "/v1/sessions/s-999999?epoch=x", ""); got != http.StatusBadRequest {
		t.Errorf("malformed close epoch: %d, want 400", got)
	}
	if got := status("POST", "/v1/sessions", `{"epsilon": 7}`); got != http.StatusBadRequest {
		t.Errorf("bad epsilon: %d, want 400", got)
	}
	if got := status("POST", "/v1/sessions", `{not json`); got != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", got)
	}
	if got := status("POST", "/v1/checkpoint", ""); got != http.StatusInternalServerError {
		t.Errorf("checkpoint without a path: %d, want 500", got)
	}

	// A session that exists but gets a bad decide payload.
	client := NewClient(hs.URL)
	sess, err := client.CreateSession(context.Background(), SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if got := status("POST", "/v1/sessions/"+sess.ID+"/decide", `{"observations":[]}`); got != http.StatusBadRequest {
		t.Errorf("wrong observation count: %d, want 400", got)
	}

	met := srv.Registry().Snapshot()
	if met.Value("serve_http_errors_total", "") == 0 {
		t.Error("serve_http_errors_total stayed zero through an error storm")
	}
	if age := met.Value("serve_checkpoint_age_seconds", ""); age != -1 {
		t.Errorf("checkpoint age %.2f with no checkpoint, want -1", age)
	}
}

// TestCheckpointMidRunRestore is the acceptance gate: a checkpoint saved
// mid-run must restore to a server whose greedy decisions are identical to
// the uninterrupted run's.
func TestCheckpointMidRunRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mid.ckpt")
	m := testModel(t, 3, 5)
	seq := testObs(m, 77, 300)
	mid := len(seq) / 2

	// Uninterrupted run, checkpointing at the midpoint.
	srvA := newTestServer(t, m, nil, Config{CheckpointPath: path})
	sessA, err := srvA.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	levelsA := make([][]int, 0, len(seq))
	for i, obs := range seq {
		if i == mid {
			if _, err := SaveCheckpoint(path, srvA.Model().Snapshot()); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
		lv, err := sessA.Decide(obs)
		if err != nil {
			t.Fatalf("run A step %d: %v", i, err)
		}
		levelsA = append(levelsA, lv)
	}

	// Restored server: same session shape, same observation stream.
	m2, err := LoadModel(path, core.DefaultConfig())
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	srvB := newTestServer(t, m2, nil, Config{})
	sessB, err := srvB.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for i, obs := range seq {
		lv, err := sessB.Decide(obs)
		if err != nil {
			t.Fatalf("run B step %d: %v", i, err)
		}
		for c := range lv {
			if lv[c] != levelsA[i][c] {
				t.Fatalf("step %d cluster %d: restored server chose %d, original chose %d", i, c, lv[c], levelsA[i][c])
			}
		}
	}
}

// TestHTTPResumeRejectsExtraLastLevels: a resume body carrying more last
// levels than the chip has clusters is a client fault even at seq 0, where
// no replay needs them — answered 400, never indexed past the model.
func TestHTTPResumeRejectsExtraLastLevels(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body := `{"options":{},"epsilon_now":0,"prev_demand":[0,0],"last_levels":[0,0,0]}`
	resp, err := http.Post(hs.URL+"/v1/sessions/resume", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume with 3 last levels for 2 clusters: %d, want 400", resp.StatusCode)
	}
}
