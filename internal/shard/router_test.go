package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/rng"
	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

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

func testModel(t testing.TB, levels ...int) *serve.Model {
	t.Helper()
	cfg, snap := testSnapshot(t, levels...)
	m, err := serve.NewModel(cfg, snap)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// testFleetRouter stands up an n-shard fleet plus a router with a binary
// front, returning the front address.
func testFleetRouter(t *testing.T, model *serve.Model, n int, ringSeed uint64) (*Fleet, *Router, string) {
	t.Helper()
	return testFleetRouterConfig(t, model, n, ringSeed, serve.Config{})
}

// testFleetRouterConfig is testFleetRouter with cfg for every shard.
func testFleetRouterConfig(t *testing.T, model *serve.Model, n int, ringSeed uint64, cfg serve.Config) (*Fleet, *Router, string) {
	t.Helper()
	fleet, err := NewFleet(model, n, cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	router, err := NewRouter(RouterConfig{RingSeed: ringSeed}, fleet.Specs())
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(router.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- router.ServeBin(ln) }()
	t.Cleanup(func() {
		router.Close()
		ln.Close()
		<-done
	})
	return fleet, router, ln.Addr().String()
}

// testObs builds one valid observation frame for the model.
func testObs(m *serve.Model) []serve.Observation {
	obs := make([]serve.Observation, m.Clusters())
	for c := range obs {
		obs[c] = serve.Observation{Utilization: 0.5, DemandRatio: 0.8, QoS: 1, ClusterQoS: 1}
	}
	return obs
}

// TestRouterPlacementMatchesRing: sessions land on the shard the ring
// names for their seed — the router adds no placement policy of its own.
func TestRouterPlacementMatchesRing(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 3, 7)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	ring := NewRing(7, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	want := map[string]int{}
	for d := 0; d < 24; d++ {
		seed := serve.DeviceSeed(3, d)
		owner, _ := ring.Owner(seed)
		want[owner]++
		if _, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: seed}); err != nil {
			t.Fatalf("open %d: %v", d, err)
		}
	}
	got := router.shardLoads()
	for name, n := range want {
		if got[name] != n {
			t.Fatalf("shard %s holds %d sessions, ring places %d (loads %v)", name, got[name], n, got)
		}
	}
}

// TestRouterBinSessionLifecycle drives a full device life through the
// binary front: create, sequenced decides, reward, close — and verifies
// the decisions match a direct session against the same model.
func TestRouterBinSessionLifecycle(t *testing.T) {
	model := testModel(t, 8, 6)
	_, _, addr := testFleetRouter(t, model, 2, 11)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	sess, err := bc.OpenSession(ctx, serve.SessionOptions{Epsilon: 0.3, Seed: 99})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := sess.NumClusters(); got != model.Clusters() {
		t.Fatalf("session advertises %d clusters, want %d", got, model.Clusters())
	}
	var gotSeq []int
	for i := 0; i < 20; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		gotSeq = append(gotSeq, lv...)
	}
	if _, err := sess.Reward(ctx, -1.5); err != nil {
		t.Fatalf("reward: %v", err)
	}
	st, err := sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != 20 || st.Rewards != 1 {
		t.Fatalf("ledger %+v, want 20 decisions / 1 reward", st)
	}

	// Direct oracle: same options, same observation stream, no router.
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	osess, err := direct.CreateSession(serve.SessionOptions{Epsilon: 0.3, Seed: 99})
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	var wantSeq []int
	for i := 0; i < 20; i++ {
		lv, err := osess.Decide(testObs(model))
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		wantSeq = append(wantSeq, lv...)
	}
	if !slices.Equal(gotSeq, wantSeq) {
		t.Fatalf("routed decisions diverge from direct session:\n got %v\nwant %v", gotSeq[:8], wantSeq[:8])
	}
}

// TestRouterHandoffOnRemove: removing the shard a session lives on makes
// the device's next decide resume transparently, with no decision lost.
func TestRouterHandoffOnRemove(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 3, 5)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	seed := serve.DeviceSeed(1, 0)
	sess, err := bc.OpenSession(ctx, serve.SessionOptions{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var got []int
	for i := 0; i < 10; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		got = append(got, lv...)
	}

	// Evict the session's owner from the ring (keep the shard process
	// alive: graceful rebalance removes from routing first).
	ring := NewRing(5, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	owner, _ := ring.Owner(seed)
	if err := router.RemoveShard(owner); err != nil {
		t.Fatalf("remove %s: %v", owner, err)
	}
	if moved := router.movedSessions.Load(); moved == 0 {
		t.Fatal("remove moved no sessions")
	}

	for i := 10; i < 20; i++ {
		lv, err := sess.Decide(ctx, testObs(model))
		if err != nil {
			t.Fatalf("decide %d after remove: %v", i, err)
		}
		got = append(got, lv...)
	}
	if st := bc.TransportStats(); st.Resumes == 0 {
		t.Fatal("handoff did not trigger a client resume")
	}

	// The full 20-decide sequence must match a never-interrupted oracle.
	direct, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer direct.Close()
	osess, err := direct.CreateSession(serve.SessionOptions{Epsilon: 0.25, Seed: seed})
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	var want []int
	for i := 0; i < 20; i++ {
		lv, err := osess.Decide(testObs(model))
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		want = append(want, lv...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("handoff changed decisions:\n got %v\nwant %v", got, want)
	}
	if _, err := sess.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRouterHTTPFrontLifecycle drives the JSON face end to end with the
// resilient HTTP client.
func TestRouterHTTPFrontLifecycle(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, err := NewFleet(model, 2, serve.Config{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer fleet.Close()
	router, err := NewRouter(RouterConfig{RingSeed: 3}, fleet.Specs())
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	hc := serve.NewClient(front.URL)
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	sess, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: 12})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.Decide(ctx, testObs(model)); err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
	}
	if _, err := sess.Reward(ctx, -0.5); err != nil {
		t.Fatalf("reward: %v", err)
	}
	st, err := sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != 5 {
		t.Fatalf("ledger decisions %d, want 5", st.Decisions)
	}

	// /v1/ring publishes the placement contract.
	resp, err := http.Get(front.URL + "/v1/ring")
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	defer resp.Body.Close()
	var ringResp RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ringResp); err != nil {
		t.Fatalf("ring decode: %v", err)
	}
	if ringResp.Seed != 3 || len(ringResp.Shards) != 2 {
		t.Fatalf("ring response %+v", ringResp)
	}
}

// TestRouterScrapeMerge: the router's /metrics merges every shard's
// scraped registry and emits per-shard rollup series with nonzero decide
// counts on every shard that carried traffic; the fleet snapshot it
// renders agrees.
func TestRouterScrapeMerge(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 7)
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()

	// Open enough devices that both shards own sessions, decide on each.
	perShard := map[string]uint64{}
	ring := NewRing(7, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	for d := 0; d < 8; d++ {
		seed := serve.DeviceSeed(2, d)
		sess, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: seed})
		if err != nil {
			t.Fatalf("open %d: %v", d, err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Decide(ctx, testObs(model)); err != nil {
				t.Fatalf("decide: %v", err)
			}
		}
		owner, _ := ring.Owner(seed)
		perShard[owner] += 3
	}
	if len(perShard) != 2 {
		t.Fatalf("test seeds landed on %d shards, want 2 (%v)", len(perShard), perShard)
	}

	// Text exposition: per-shard rollup plus merged fleet series.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	for {
		m, err := resp.Body.Read(body[n:])
		n += m
		if err != nil || m == 0 {
			break
		}
	}
	resp.Body.Close()
	text := string(body[:n])
	var fleetTotal uint64
	for name, want := range perShard {
		line := fmt.Sprintf("router_shard_decisions_total{shard=%q} %d", name, want)
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q", line)
		}
		fleetTotal += want
	}
	if !strings.Contains(text, fmt.Sprintf("serve_decisions_total %d", fleetTotal)) {
		t.Errorf("merged exposition missing fleet serve_decisions_total %d", fleetTotal)
	}
	if !strings.Contains(text, "router_sessions 8") {
		t.Errorf("router's own gauge missing from exposition")
	}

	// The fleet snapshot agrees.
	snap := router.fleetSnapshot(ctx)
	if got := snap.Value("serve_decisions_total", ""); got != float64(fleetTotal) {
		t.Fatalf("fleet snapshot serve_decisions_total %v, want %d", got, fleetTotal)
	}
	for name, want := range perShard {
		shard := fmt.Sprintf("shard=%q", name)
		if up, got := snap.Value("router_shard_up", shard), snap.Value("router_shard_decisions_total", shard); up != 1 || got != float64(want) {
			t.Fatalf("shard %s: up %v with %v decisions, want up with %d", name, up, got, want)
		}
	}
}

// TestRouterExpositionOneBlock pins the router's /metrics as one sorted
// exposition: with both shards up, all three rollup series appear for
// each shard, and every family's HELP and TYPE lines appear once, ahead
// of its series.
func TestRouterExpositionOneBlock(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 7)
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ctx := context.Background()
	for d := 0; d < 4; d++ {
		sess, err := bc.OpenSession(ctx, serve.SessionOptions{Seed: serve.DeviceSeed(2, d)})
		if err != nil {
			t.Fatalf("open %d: %v", d, err)
		}
		if _, err := sess.Decide(ctx, testObs(model)); err != nil {
			t.Fatalf("decide: %v", err)
		}
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := string(raw)
	for _, sp := range router.Shards() {
		for _, family := range []string{"router_shard_up", "router_shard_sessions", "router_shard_decisions_total"} {
			if prefix := fmt.Sprintf("\n%s{shard=%q} ", family, sp.Name); !strings.Contains(text, prefix) {
				t.Errorf("exposition has no %s series for shard %s", family, sp.Name)
			}
		}
		if line := fmt.Sprintf("\nrouter_shard_up{shard=%q} 1\n", sp.Name); !strings.Contains(text, line) {
			t.Errorf("shard %s is not up in the exposition", sp.Name)
		}
	}

	// One HELP and one TYPE per family, in sorted family order, and every
	// series after its own family's TYPE line.
	typed := map[string]bool{}
	var families []string
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "#" && f[1] == "TYPE":
			if typed[f[2]] {
				t.Fatalf("family %s typed twice", f[2])
			}
			typed[f[2]] = true
			families = append(families, f[2])
			family = f[2]
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			if typed[f[2]] {
				t.Fatalf("family %s has a HELP line after its TYPE", f[2])
			}
		case !strings.HasPrefix(line, family):
			t.Fatalf("series %q outside its family's block (last TYPE %s)", line, family)
		}
	}
	if !slices.IsSorted(families) {
		t.Fatalf("families not in one sorted block: %v", families)
	}
	for _, want := range []string{"router_shard_up", "router_sessions", "serve_decisions_total"} {
		if !typed[want] {
			t.Errorf("exposition has no %s family", want)
		}
	}
}

// TestMapForwardErr pins the error translation: overload (with its
// backoff hint), bad-seq, and bad-request pass through; session-scoped
// not-found becomes the resume signal; transport failures become
// retryable server-closed.
func TestMapForwardErr(t *testing.T) {
	hinted := &serve.BackoffError{
		Err:        fmt.Errorf("%w: queue full", serve.ErrOverloaded),
		RetryAfter: 40 * time.Millisecond,
	}
	if got := mapForwardErr(hinted, true); !errors.Is(got, serve.ErrOverloaded) {
		t.Fatalf("overload did not pass through: %v", got)
	} else {
		var be *serve.BackoffError
		if !errors.As(got, &be) || be.RetryAfter != 40*time.Millisecond {
			t.Fatalf("backoff hint lost across the router: %v", got)
		}
	}
	if got := mapForwardErr(serve.ErrBadSeq, true); !errors.Is(got, serve.ErrBadSeq) {
		t.Fatalf("bad seq rewritten: %v", got)
	}
	if got := mapForwardErr(serve.ErrBadRequest, true); !errors.Is(got, serve.ErrBadRequest) {
		t.Fatalf("bad request rewritten: %v", got)
	}
	for _, in := range []error{serve.ErrNoSession, serve.ErrUnknownSession, serve.ErrSessionClosed} {
		got := mapForwardErr(in, true)
		if !errors.Is(got, serve.ErrUnknownSession) {
			t.Fatalf("session-scoped %v did not become the resume signal: %v", in, got)
		}
	}
	if got := mapForwardErr(fmt.Errorf("dial tcp: connection refused"), true); !errors.Is(got, serve.ErrServerClosed) {
		t.Fatalf("transport failure not retryable: %v", got)
	}
	// Create path: a shard that forgot a session is not a resume signal
	// for a create — it is a failed forward.
	if got := mapForwardErr(serve.ErrNoSession, false); !errors.Is(got, serve.ErrServerClosed) {
		t.Fatalf("create-path session error should be retryable server-closed: %v", got)
	}
}

// TestRouterRejectsUnknownAndForeignEpochs: wrong-epoch and never-minted
// handles answer with the resumable unknown-session signal.
func TestRouterRejectsUnknownAndForeignEpochs(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, _ := testFleetRouter(t, model, 1, 1)
	c := router.openConn()
	if err := c.Start(0, &serve.FrontReq{Type: wire.TDecide, Handle: 999, Epoch: router.cfg.Epoch, Seq: 1, Obs: testObs(model)}); !errors.Is(err, serve.ErrUnknownSession) {
		t.Fatalf("unknown handle: %v", err)
	}
	if err := c.Start(0, &serve.FrontReq{Type: wire.TDecide, Handle: 1, Epoch: router.cfg.Epoch + 1, Seq: 1, Obs: testObs(model)}); !errors.Is(err, serve.ErrUnknownSession) {
		t.Fatalf("foreign epoch: %v", err)
	}
}

// TestRouterCloseNamesItsEpoch is the router's half of the close epoch:
// router handles restart at 1 in every router incarnation too, so after a
// router restart device X's close must not retire device Y's routed
// session under the same handle. The router refuses the stale epoch, X
// resumes through it and closes its own session, and Y's stays live. On
// both wires.
func TestRouterCloseNamesItsEpoch(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, err := NewFleet(model, 2, serve.Config{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	obs := testObs(model)
	for _, proto := range []string{"json", "bin"} {
		t.Run(proto, func(t *testing.T) {
			ctx := context.Background()
			// route serves a router incarnation of the given epoch on addr,
			// retrying the listen while a predecessor's socket releases.
			route := func(epoch uint32, addr string) (*Router, *serve.Front, string) {
				t.Helper()
				r, err := NewRouter(RouterConfig{Epoch: epoch, RingSeed: 7}, fleet.Specs())
				if err != nil {
					t.Fatalf("router: %v", err)
				}
				deadline := time.Now().Add(5 * time.Second)
				ln, err := net.Listen("tcp", addr)
				for err != nil && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
					ln, err = net.Listen("tcp", addr)
				}
				if err != nil {
					r.Close()
					t.Fatalf("listen %s: %v", addr, err)
				}
				front, err := serve.ServeFront(r, proto, ln)
				if err != nil {
					r.Close()
					t.Fatalf("front: %v", err)
				}
				return r, front, ln.Addr().String()
			}
			r1, f1, addr := route(1, "127.0.0.1:0")
			client, err := serve.NewFleetClient(proto, addr)
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			defer client.Close()
			x, err := client.Open(ctx, serve.SessionOptions{Seed: 1})
			if err != nil {
				t.Fatalf("open X: %v", err)
			}
			for i := 0; i < 3; i++ {
				if _, err := x.Decide(ctx, obs); err != nil {
					t.Fatalf("X decide: %v", err)
				}
			}
			f1.Close()
			r1.Close()
			r2, f2, _ := route(2, addr)
			defer r2.Close()
			defer f2.Close()
			y, err := client.Open(ctx, serve.SessionOptions{Seed: 2})
			if err != nil {
				t.Fatalf("open Y: %v", err)
			}
			if y.Handle != x.Handle || y.Epoch == x.Epoch {
				t.Fatalf("Y holds handle %d in epoch %d, X handle %d in epoch %d: want one handle, two epochs", y.Handle, y.Epoch, x.Handle, x.Epoch)
			}

			st, err := x.Close(ctx)
			if err != nil {
				t.Fatalf("X close: %v", err)
			}
			if st.Decisions != 3 {
				t.Errorf("X's close answered a ledger of %d decisions, want X's own 3", st.Decisions)
			}
			met := r2.reg.Snapshot()
			if live := met.Value("router_sessions", ""); live != 1 {
				t.Errorf("%v routed sessions after X's close, want Y's alone", live)
			}
			if _, err := y.Decide(ctx, obs); err != nil {
				t.Fatalf("Y decide after X's close: %v", err)
			}
			met = r2.reg.Snapshot()
			if n := met.Value("router_resumes_total", ""); n != 1 {
				t.Fatalf("%v resumes through the router, want X's one: Y's session must not have been lost", n)
			}
		})
	}
}

// TestFrozenCohortAcrossFronts pins the cohort on every front that
// forwards a create over the binary wire: on a learning 2-shard fleet, a
// frozen session created through pmserve bin, pmrouter JSON and pmrouter
// bin decides twice and rewards once, and the reward counts in its shard's
// frozen-arm ledger, never the learning arm's.
func TestFrozenCohortAcrossFronts(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, router, routerBin := testFleetRouterConfig(t, model, 2, 5, serve.Config{
		Learn: serve.LearnConfig{Enabled: true},
	})
	routerHTTP := httptest.NewServer(router.Handler())
	defer routerHTTP.Close()
	ctx := context.Background()
	obs := testObs(model)
	cohortRewards := func() (learning, frozen uint64) {
		for _, spec := range fleet.Specs() {
			met := fleet.Server(spec.Name).Registry().Snapshot()
			learning += uint64(met.Find("serve_cohort_rewards_total", `cohort="learning"`).Value)
			frozen += uint64(met.Find("serve_cohort_rewards_total", `cohort="frozen"`).Value)
		}
		return learning, frozen
	}
	viaBin := func(addr string) func(t *testing.T, opts serve.SessionOptions) {
		return func(t *testing.T, opts serve.SessionOptions) {
			bc := serve.NewBinClient(addr)
			defer bc.Close()
			var c serve.BinCaller
			ans, err := c.Call(ctx, bc, createReq(opts))
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			h, ep := ans.Info.Handle, ans.Info.Epoch
			for seq := uint64(1); seq <= 2; seq++ {
				if _, err := c.Call(ctx, bc, &serve.FrontReq{Type: wire.TDecide, Handle: h, Epoch: ep, Seq: seq, Obs: obs}); err != nil {
					t.Fatalf("decide %d: %v", seq, err)
				}
			}
			if _, err := c.Call(ctx, bc, &serve.FrontReq{Type: wire.TReward, Handle: h, Epoch: ep, Seq: 1, Reward: -0.5}); err != nil {
				t.Fatalf("reward: %v", err)
			}
		}
	}
	viaJSON := func(t *testing.T, opts serve.SessionOptions) {
		hc := serve.NewClient(routerHTTP.URL)
		defer hc.CloseIdleConnections()
		sess, err := hc.CreateSession(ctx, opts)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 2; i++ {
			if _, err := sess.Decide(ctx, obs); err != nil {
				t.Fatalf("decide %d: %v", i, err)
			}
		}
		if _, err := sess.Reward(ctx, -0.5); err != nil {
			t.Fatalf("reward: %v", err)
		}
	}
	cells := []struct {
		name string
		run  func(t *testing.T, opts serve.SessionOptions)
	}{
		{"pmserve/bin", viaBin(fleet.Specs()[0].BinAddr)},
		{"pmrouter/json", viaJSON},
		{"pmrouter/bin", viaBin(routerBin)},
	}
	for i, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			learning0, frozen0 := cohortRewards()
			cell.run(t, serve.SessionOptions{Seed: uint64(40 + i), Cohort: serve.CohortFrozen})
			learning1, frozen1 := cohortRewards()
			if frozen1 != frozen0+1 || learning1 != learning0 {
				t.Fatalf("reward of a frozen session counted %d frozen, %d learning; want 1 frozen, 0 learning",
					frozen1-frozen0, learning1-learning0)
			}
		})
	}
	// A cohort the wire cannot spell is refused on the forwarding path too,
	// as the JSON front refuses an unknown cohort.
	hc := serve.NewClient(routerHTTP.URL)
	defer hc.CloseIdleConnections()
	if _, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: 50, Cohort: "canary"}); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("router create with an unknown cohort: %v, want ErrBadRequest", err)
	}
}

// TestErrorTableAcrossFronts sends single-attempt faulty decides through
// every front a device can reach — pmserve's JSON and bin listeners and
// pmrouter's — and checks that each front answers with the same sentinel
// (bin) or status and code (JSON).
func TestErrorTableAcrossFronts(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, router, routerBin := testFleetRouter(t, model, 1, 5)
	routerHTTP := httptest.NewServer(router.Handler())
	defer routerHTTP.Close()
	shard := fleet.Specs()[0]
	fronts := []struct{ name, binAddr, url string }{
		{"pmserve", shard.BinAddr, "http://" + shard.HTTPAddr},
		{"pmrouter", routerBin, routerHTTP.URL},
	}
	badObs := testObs(model)
	badObs[0].Utilization = -1
	rows := []struct {
		name    string
		obs     []serve.Observation
		seq     uint64
		foreign bool // address the session under a foreign epoch
		want    error
		status  int
		code    string
	}{
		{"bad observation", badObs, 1, false, serve.ErrBadRequest, http.StatusBadRequest, "bad_request"},
		{"bad seq", testObs(model), 99, false, serve.ErrBadSeq, http.StatusConflict, "bad_seq"},
		{"foreign epoch", testObs(model), 1, true, serve.ErrUnknownSession, http.StatusNotFound, "unknown_session"},
	}
	ctx := context.Background()
	// decideJSON posts one decide for session id and returns the answer's
	// status and error code.
	decideJSON := func(t *testing.T, url, id string, req serve.DecideRequest) (int, string) {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/sessions/"+id+"/decide", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("decide: %v", err)
		}
		defer resp.Body.Close()
		var body struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decide answer: %v", err)
		}
		return resp.StatusCode, body.Code
	}
	for _, f := range fronts {
		bc := serve.NewBinClient(f.binAddr)
		defer bc.Close()
		hc := serve.NewClient(f.url)
		defer hc.CloseIdleConnections()
		for i, row := range rows {
			seed := uint64(100 + i)
			t.Run(f.name+"/bin/"+row.name, func(t *testing.T) {
				var c serve.BinCaller
				ans, err := c.Call(ctx, bc, createReq(serve.SessionOptions{Seed: seed}))
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				epoch := ans.Info.Epoch
				if row.foreign {
					epoch++
				}
				decide := &serve.FrontReq{Type: wire.TDecide, Handle: ans.Info.Handle, Epoch: epoch, Seq: row.seq, Obs: row.obs}
				if _, err := c.Call(ctx, bc, decide); !errors.Is(err, row.want) {
					t.Fatalf("decide answered %v, want %v", err, row.want)
				}
			})
			t.Run(f.name+"/json/"+row.name, func(t *testing.T) {
				sess, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: seed})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				epoch := sess.Epoch
				if row.foreign {
					epoch++
				}
				status, code := decideJSON(t, f.url, sess.ID, serve.DecideRequest{Epoch: epoch, Seq: row.seq, Observations: row.obs})
				if status != row.status || code != row.code {
					t.Fatalf("decide answered %d %q, want %d %q", status, code, row.status, row.code)
				}
				if row.want == serve.ErrBadRequest {
					if _, err := sess.Decide(ctx, row.obs); !errors.Is(err, serve.ErrBadRequest) {
						t.Fatalf("RemoteSession.Decide returned %v, want ErrBadRequest", err)
					}
				}
			})
		}
		// Only the canonical id names a session. Each of these ids would
		// name handle 1 — live on the front by now — under a lenient
		// parser, and must answer as a handle the front never minted does.
		for _, id := range []string{"s-1", "s-0000001", "s-00000x", "r-000001"} {
			t.Run(f.name+"/json/id "+id, func(t *testing.T) {
				sess, err := hc.CreateSession(ctx, serve.SessionOptions{Seed: 200})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				if status, code := decideJSON(t, f.url, sess.ID, serve.DecideRequest{Epoch: sess.Epoch, Seq: 1, Observations: testObs(model)}); status != http.StatusOK {
					t.Fatalf("live session %s answered %d %q", sess.ID, status, code)
				}
				for _, epoch := range []uint32{0, sess.Epoch} {
					want := "no_session"
					if epoch != 0 {
						want = "unknown_session"
					}
					status, code := decideJSON(t, f.url, id, serve.DecideRequest{Epoch: epoch, Seq: 1, Observations: testObs(model)})
					if status != http.StatusNotFound || code != want {
						t.Fatalf("id %q under epoch %d answered %d %q, want %d %q", id, epoch, status, code, http.StatusNotFound, want)
					}
				}
			})
		}
	}
}
