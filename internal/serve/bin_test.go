package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rlpm/internal/wire"
)

// startBinServer attaches a loopback binary listener to srv and returns
// its address. The listener dies with the server (Server.Close) or the
// test (cleanup).
func startBinServer(t testing.TB, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBin(ln) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeBin: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestBinSessionLifecycle drives create → decide* → reward → close over
// the binary protocol and checks every decision against the serial oracle,
// proving the wire path reproduces Session semantics exactly.
func TestBinSessionLifecycle(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)
	c := NewBinClient(addr)
	defer c.Close()
	ctx := context.Background()

	opts := SessionOptions{Epsilon: 0.3, EpsilonMin: 0.01, EpsilonDecay: 0.97, Seed: 1234}
	sess, err := c.OpenSession(ctx, opts)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if sess.NumClusters() != 2 || sess.NumLevels[0] != 3 || sess.NumLevels[1] != 5 {
		t.Fatalf("session geometry %d clusters, levels %v", sess.NumClusters(), sess.NumLevels)
	}

	orc := newOracle(m, opts)
	const steps = 150
	for i, obs := range testObs(m, 77, steps) {
		got, err := sess.Decide(ctx, obs)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		want := orc.decide(obs)
		for cidx := range want {
			if got[cidx] != want[cidx] {
				t.Fatalf("step %d cluster %d: wire served %d, oracle %d", i, cidx, got[cidx], want[cidx])
			}
		}
	}

	st, err := sess.Reward(ctx, -1.25)
	if err != nil {
		t.Fatalf("reward: %v", err)
	}
	if st.Decisions != steps || st.Rewards != 1 || st.MeanReward != -1.25 {
		t.Fatalf("reward stats %+v", st)
	}
	st, err = sess.Close(ctx)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Decisions != steps || st.Rewards != 1 {
		t.Fatalf("close stats %+v", st)
	}
	// The session is dead now: the client refuses locally (it must not
	// resume a deliberately closed session).
	if _, err := sess.Decide(ctx, testObs(m, 1, 1)[0]); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("decide after close: %v, want ErrSessionClosed", err)
	}
}

// TestBinDifferentialOracle is the cross-protocol determinism pin: the same
// seeded fleet replayed over HTTP/JSON and over the binary protocol must
// produce identical decision sequences per device, concurrently, because
// all stochastic state is session-local and seeded. Run under -race in CI.
func TestBinDifferentialOracle(t *testing.T) {
	m := testModel(t, 4, 3, 6)
	srv := newTestServer(t, m, nil, Config{MaxBatch: 16})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	addr := startBinServer(t, srv)

	jsonC := NewClient(hs.URL)
	binC := NewBinClient(addr)
	defer binC.Close()
	ctx := context.Background()

	const devices, steps = 10, 120
	type result struct {
		levels [][]int
		err    error
	}
	jsonRes := make([]result, devices)
	binRes := make([]result, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		opts := SessionOptions{Epsilon: 0.4, EpsilonMin: 0.02, EpsilonDecay: 0.95, Seed: uint64(1000 + d)}
		obsSeed := uint64(500 + d)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sess, err := jsonC.CreateSession(ctx, opts)
			if err != nil {
				jsonRes[d].err = err
				return
			}
			for _, obs := range testObs(m, obsSeed, steps) {
				lv, err := sess.Decide(ctx, obs)
				if err != nil {
					jsonRes[d].err = err
					return
				}
				jsonRes[d].levels = append(jsonRes[d].levels, lv)
			}
			_, jsonRes[d].err = sess.Close(ctx)
		}(d)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sess, err := binC.OpenSession(ctx, opts)
			if err != nil {
				binRes[d].err = err
				return
			}
			for _, obs := range testObs(m, obsSeed, steps) {
				lv, err := sess.Decide(ctx, obs)
				if err != nil {
					binRes[d].err = err
					return
				}
				binRes[d].levels = append(binRes[d].levels, lv)
			}
			_, binRes[d].err = sess.Close(ctx)
		}(d)
	}
	wg.Wait()
	for d := 0; d < devices; d++ {
		if jsonRes[d].err != nil {
			t.Fatalf("device %d json: %v", d, jsonRes[d].err)
		}
		if binRes[d].err != nil {
			t.Fatalf("device %d bin: %v", d, binRes[d].err)
		}
		for step := range jsonRes[d].levels {
			j, b := jsonRes[d].levels[step], binRes[d].levels[step]
			for c := range j {
				if j[c] != b[c] {
					t.Fatalf("device %d step %d cluster %d: json %d, bin %d — protocols diverged",
						d, step, c, j[c], b[c])
				}
			}
		}
	}
	if frames, conns := seriesValue(t, srv, "serve_bin_frames_total", ""), seriesValue(t, srv, "serve_bin_connections_total", ""); frames == 0 || conns == 0 {
		t.Fatalf("binary path served nothing: %d frames over %d connections", frames, conns)
	}
}

// TestBinErrorMapping checks that server-side failures surface as the same
// sentinels the HTTP client maps to, via wire error codes. A single
// attempt on a handle the server never minted shows the table without a
// retry or resume in the way.
func TestBinErrorMapping(t *testing.T) {
	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)
	c := NewBinClient(addr)
	defer c.Close()
	ctx := context.Background()

	var ghost BinCaller
	for _, req := range []FrontReq{
		{Type: wire.TDecide, Handle: 999999, Obs: []Observation{{Level: 0}}},
		{Type: wire.TReward, Handle: 999999, Reward: 1},
		{Type: wire.TClose, Handle: 999999},
	} {
		if _, err := ghost.Call(ctx, c, &req); !errors.Is(err, ErrNoSession) {
			t.Fatalf("unknown handle, request type %d: %v, want ErrNoSession", req.Type, err)
		}
	}
	if _, err := c.OpenSession(ctx, SessionOptions{Epsilon: 2}); err == nil {
		t.Fatal("epsilon 2 accepted over the wire")
	}
	// A session-level error must not poison the connection: the same
	// client immediately serves a real session.
	sess, err := c.OpenSession(ctx, SessionOptions{})
	if err != nil {
		t.Fatalf("OpenSession after errors: %v", err)
	}
	if _, err := sess.Decide(ctx, []Observation{{Level: 1}}); err != nil {
		t.Fatalf("decide after errors: %v", err)
	}
}

// TestBinCorruptFrameClosesConn talks raw bytes: a frame with a corrupted
// CRC must be answered with a TError frame and then the connection must
// close — the server refuses to keep parsing a desynchronized stream.
func TestBinCorruptFrameClosesConn(t *testing.T) {
	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	frame := wire.FinishFrame(wire.AppendCloseReq(wire.BeginFrame(nil), wire.CloseReq{Handle: 1}), wire.TClose, 3)
	frame[13] ^= 0xFF // corrupt the CRC
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	var hdr [wire.HeaderSize]byte
	h, payload, err := wire.ReadFrame(conn, &hdr, nil)
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if h.Type != wire.TError {
		t.Fatalf("response type %d, want TError", h.Type)
	}
	var ef wire.ErrorFrame
	if err := wire.ParseError(payload, &ef); err != nil {
		t.Fatalf("parse error frame: %v", err)
	}
	if ef.Code != wire.CodeBadRequest {
		t.Fatalf("error code %d, want CodeBadRequest", ef.Code)
	}
	// The server must hang up now.
	if _, err := conn.Read(hdr[:1]); err != io.EOF {
		t.Fatalf("after corrupt frame: read returned %v, want EOF", err)
	}
}

// TestBinPipelining pins the multiplexing contract: several requests for
// different sessions written back-to-back on one connection are answered
// in order with their request ids echoed, so one connection can carry a
// whole device fleet. A second write mixes every request type into one
// window — a create, a decide, a reward, a close, a decide on the closed
// handle, a close of an unknown handle and a malformed frame — and must be
// answered in frame order with the codes serving one frame at a time
// gives, the malformed frame closing the connection.
func TestBinPipelining(t *testing.T) {
	m := testModel(t, 3, 4)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Two sessions created server-side (the raw conn only decides).
	s1, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := []wire.Obs{{Utilization: 0.5, Level: 1}, {DemandRatio: 0.8, Level: 2}}

	// Pipeline: s1 decide, s2 decide, s1 decide — one write, three frames.
	var buf []byte
	for i, h := range []uint64{s1.handle, s2.handle, s1.handle} {
		buf = append(buf, wire.FinishFrame(
			wire.AppendDecideReq(wire.BeginFrame(nil), h, 0, 0, obs), wire.TDecide, uint32(100+i))...)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for i := 0; i < 3; i++ {
		var h wire.Header
		h, payload, err = wire.ReadFrame(conn, &hdr, payload)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.Type != wire.TDecideOK || h.ReqID != uint32(100+i) {
			t.Fatalf("response %d: type %d req %d, want TDecideOK req %d", i, h.Type, h.ReqID, 100+i)
		}
		var dok wire.DecideOK
		if err := wire.ParseDecideOK(payload, &dok); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if len(dok.Levels) != 2 {
			t.Fatalf("response %d: %d levels", i, len(dok.Levels))
		}
	}

	ep, h2 := srv.cfg.Epoch, s2.handle
	mixed := []struct {
		typ     byte
		payload []byte
		want    byte   // answer type
		code    uint16 // an error answer's code
	}{
		{wire.TCreate, wire.AppendCreateReq(wire.BeginFrame(nil), wire.CreateReq{Seed: 9}), wire.TCreateOK, 0},
		{wire.TDecide, wire.AppendDecideReq(wire.BeginFrame(nil), h2, ep, 0, obs), wire.TDecideOK, 0},
		{wire.TReward, wire.AppendRewardReq(wire.BeginFrame(nil), wire.RewardReq{Handle: h2, Epoch: ep, Reward: -1}), wire.TRewardOK, 0},
		{wire.TClose, wire.AppendCloseReq(wire.BeginFrame(nil), wire.CloseReq{Handle: h2, Epoch: ep}), wire.TCloseOK, 0},
		{wire.TDecide, wire.AppendDecideReq(wire.BeginFrame(nil), h2, ep, 0, obs), wire.TError, wire.CodeUnknownSession},
		{wire.TClose, wire.AppendCloseReq(wire.BeginFrame(nil), wire.CloseReq{Handle: 999}), wire.TError, wire.CodeNoSession},
		{wire.TReward, append(wire.BeginFrame(nil), 1, 2, 3), wire.TError, wire.CodeBadRequest},
	}
	buf = buf[:0]
	for i, m := range mixed {
		buf = append(buf, wire.FinishFrame(m.payload, m.typ, uint32(200+i))...)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var created wire.CreateOK
	for i, m := range mixed {
		h, p, err := wire.ReadFrame(conn, &hdr, payload)
		payload = p
		if err != nil {
			t.Fatalf("mixed answer %d: %v", i, err)
		}
		if h.ReqID != uint32(200+i) || h.Type != m.want {
			t.Fatalf("mixed answer %d: type %d for request %d, want type %d for request %d", i, h.Type, h.ReqID, m.want, 200+i)
		}
		var stats wire.Stats
		var ef wire.ErrorFrame
		switch m.want {
		case wire.TCreateOK:
			if err := wire.ParseCreateOK(p, &created); err != nil || created.Epoch != ep || !slices.Equal(created.NumLevels, []int{3, 4}) {
				t.Fatalf("create answered %+v, %v", created, err)
			}
		case wire.TRewardOK, wire.TCloseOK:
			if err := wire.ParseStats(p, &stats); err != nil || stats.Decisions != 2 || stats.Rewards != 1 {
				t.Fatalf("mixed answer %d: ledger %+v, %v; want 2 decisions, 1 reward", i, stats, err)
			}
		case wire.TError:
			if err := wire.ParseError(p, &ef); err != nil || ef.Code != m.code {
				t.Fatalf("mixed answer %d: code %d (%s), want %d", i, ef.Code, ef.Msg, m.code)
			}
		}
	}
	if _, err := conn.Read(hdr[:1]); err != io.EOF {
		t.Fatalf("after a malformed frame: read returned %v, want EOF", err)
	}
	if _, err := srv.SessionByHandleEpoch(created.Handle, ep); err != nil {
		t.Fatalf("the session the window created: %v", err)
	}
}

// emfileListener fails its first fails Accepts with EMFILE, as a process
// out of file descriptors does.
type emfileListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestBinServeRetriesTemporaryAcceptErrors: accept errors from a full
// descriptor table do not turn the binary listener off. The front backs
// off and accepts again, so a device's create goes through, and the
// listener still stops cleanly on close.
func TestBinServeRetriesTemporaryAcceptErrors(t *testing.T) {
	srv := newTestServer(t, testModel(t, 3), nil, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	el := &emfileListener{Listener: ln}
	el.fails.Store(2)
	done := make(chan error, 1)
	go func() { done <- srv.ServeBin(el) }()

	bc := NewBinClient(ln.Addr().String())
	defer bc.Close()
	bc.SetCallTimeout(5 * time.Second)
	var c BinCaller
	if _, err := c.Call(context.Background(), bc, &FrontReq{Type: wire.TCreate}); err != nil {
		t.Fatalf("create after two EMFILE accepts: %v", err)
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeBin after close: %v", err)
	}
}

// TestBinOversizedPrefixRejected sends a header declaring a payload beyond
// MaxPayload; the server must reject it from the header alone (no wait for
// a megabyte that never comes) and close the connection.
func TestBinOversizedPrefixRejected(t *testing.T) {
	m := testModel(t, 3)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// A valid CRC over an oversized length: only the length is at fault.
	var hdr [wire.HeaderSize]byte
	wire.PutHeader(hdr[:], wire.TDecide, 9, wire.MaxPayload+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	var rh [wire.HeaderSize]byte
	h, payload, err := wire.ReadFrame(conn, &rh, nil)
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	var ef wire.ErrorFrame
	if h.Type != wire.TError || wire.ParseError(payload, &ef) != nil || ef.Code != wire.CodeBadRequest {
		t.Fatalf("oversized prefix answered with type %d code %d", h.Type, ef.Code)
	}
	if _, err := conn.Read(rh[:1]); err != io.EOF {
		t.Fatalf("after oversized prefix: read returned %v, want EOF", err)
	}
}

// TestSessionDecideIntoAllocFree pins the server-side decide hot path at
// zero allocations once session scratch is warm — the property the binary
// protocol's throughput target rests on.
func TestSessionDecideIntoAllocFree(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{{Utilization: 0.6, Level: 1}, {DemandRatio: 1.1, Level: 3}}
	levels := make([]int, 2)
	for i := 0; i < 10; i++ { // warm the session before counting
		if err := sess.DecideInto(obs, levels); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := sess.DecideInto(obs, levels); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecideInto allocates %v times per call, want 0", n)
	}
}

// TestBinFrozenCohortInWindow pins the frozen cohort on every decide path:
// a frozen session's frame gathered into a bin window behind a learning
// session's frame must resolve against the construction model, not the
// live policy.
func TestBinFrozenCohortInWindow(t *testing.T) {
	cfg, snap := testSnapshot(t, 3, 5)
	m, err := NewModel(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range snap.Tables {
		for _, row := range table {
			for a := range row {
				row[a] = -row[a] // every argmax becomes an argmin
			}
		}
	}
	live, err := NewModel(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := learnServer(t, m)
	srv.backend.live.Store(live)
	learning, err := srv.CreateSession(SessionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fopts := SessionOptions{Seed: 2, Cohort: CohortFrozen}
	frozen, err := srv.CreateSession(fopts)
	if err != nil {
		t.Fatal(err)
	}
	want := newOracle(m, fopts)

	cli, server := net.Pipe()
	defer cli.Close()
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		srv.bin.serveConn(server, srv.openConn())
	}()
	cli.SetDeadline(time.Now().Add(10 * time.Second))

	const periods = 40
	lobs, fobs := testObs(m, 11, periods), testObs(m, 12, periods)
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for i := 0; i < periods; i++ {
		// One write, so the frozen frame is gathered behind the learning
		// one. Each frame gets its own buffer: BeginFrame resets it.
		buf := wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), learning.handle, 0, 0, lobs[i]), wire.TDecide, 1)
		buf = append(buf, wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), frozen.handle, 0, 0, fobs[i]), wire.TDecide, 2)...)
		if _, err := cli.Write(buf); err != nil {
			t.Fatalf("period %d write: %v", i, err)
		}
		var got wire.DecideOK
		for r := 0; r < 2; r++ {
			h, p, err := wire.ReadFrame(cli, &hdr, payload)
			payload = p
			if err != nil || h.Type != wire.TDecideOK {
				t.Fatalf("period %d response %d: type %d, %v", i, r, h.Type, err)
			}
			if h.ReqID == 2 {
				if err := wire.ParseDecideOK(p, &got); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Equal(got.Levels, want.decide(fobs[i])) {
			t.Fatalf("period %d: frozen session decided %v in a window, construction model says otherwise", i, got.Levels)
		}
	}
	if got, want := seriesValue(t, srv, "serve_lookups_total", ""), uint64(2*periods*m.Clusters()); got != want {
		t.Fatalf("serve_lookups_total %d, want %d (frozen lookups count too)", got, want)
	}
	cli.Close()
	<-connDone
}

// TestBinWindowAllocFree pins the bin window at zero allocations for
// every window size, a lone frame's window of one included: a raw client
// that allocates nothing pipelines rounds of 1, 2, 4 and 8 request frames
// for distinct sessions in one write each. Each round is one kind of
// frame: unsequenced decides, sequenced decides (each writes its
// session's replay cache) or sequenced rewards (each answers its
// session's ledger).
func TestBinWindowAllocFree(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	addr := startBinServer(t, srv)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)

	obs := []wire.Obs{{Utilization: 0.5, Level: 1}, {DemandRatio: 0.8, Level: 2}}
	var handles []uint64
	for i := 0; i < 8; i++ {
		s, err := srv.CreateSession(SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, s.handle)
	}
	// Every frame is rebuilt in place on each send, so a sequenced frame
	// carries its session's next number; the buffers are warmed with the
	// window.
	var decideSeqs, rewardSeqs [8]uint64
	kinds := []struct {
		name  string
		reply byte
		frame func(dst []byte, i int) []byte
	}{
		{"unsequenced decide", wire.TDecideOK, func(dst []byte, i int) []byte {
			return wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(dst), handles[i], 0, 0, obs), wire.TDecide, uint32(i))
		}},
		{"sequenced decide", wire.TDecideOK, func(dst []byte, i int) []byte {
			decideSeqs[i]++
			return wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(dst), handles[i], srv.cfg.Epoch, decideSeqs[i], obs), wire.TDecide, uint32(i))
		}},
		{"reward", wire.TRewardOK, func(dst []byte, i int) []byte {
			rewardSeqs[i]++
			req := wire.RewardReq{Handle: handles[i], Reward: -0.5, Epoch: srv.cfg.Epoch, Seq: rewardSeqs[i]}
			return wire.FinishFrame(wire.AppendRewardReq(wire.BeginFrame(dst), req), wire.TReward, uint32(i))
		}},
	}
	var round, frame []byte
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for _, kind := range kinds {
		for _, n := range []int{1, 2, 4, 8} {
			send := func() {
				round = round[:0]
				for i := 0; i < n; i++ {
					frame = kind.frame(frame, i)
					round = append(round, frame...)
				}
				if _, err := conn.Write(round); err != nil {
					t.Fatalf("write: %v", err)
				}
				for i := 0; i < n; i++ {
					h, p, err := wire.ReadFrame(br, &hdr, payload)
					payload = p
					if err != nil || h.Type != kind.reply {
						t.Fatalf("round of %d %s frames, response %d: type %d, %v", n, kind.name, i, h.Type, err)
					}
				}
			}
			for i := 0; i < 10; i++ { // warm the window and the sessions
				send()
			}
			if a := testing.AllocsPerRun(100, send); a != 0 {
				t.Errorf("a pipelined round of %d %s frames allocates %v times, want 0", n, kind.name, a)
			}
		}
	}
}

// TestBinClientAllocs pins the client side of a warmed binary session:
// DecideMany allocates only the slice it returns, Reward nothing. The
// call scratch is the session's own, so the pin holds under -race too.
func TestBinClientAllocs(t *testing.T) {
	m := testModel(t, 3, 5)
	srv := newTestServer(t, m, nil, Config{})
	c := NewBinClient(startBinServer(t, srv))
	defer c.Close()
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, SessionOptions{Epsilon: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{{Utilization: 0.6, Level: 1}, {DemandRatio: 1.1, Level: 3}}
	decide := func() {
		if _, err := sess.DecideMany(ctx, obs); err != nil {
			t.Fatal(err)
		}
	}
	reward := func() {
		if _, err := sess.Reward(ctx, -0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		decide()
		reward()
	}
	if n := testing.AllocsPerRun(100, decide); n > 1 {
		t.Errorf("RemoteSession.DecideMany over the binary wire allocates %v times per call, want at most 1 (its result)", n)
	}
	if n := testing.AllocsPerRun(100, reward); n != 0 {
		t.Errorf("RemoteSession.Reward over the binary wire allocates %v times per call, want 0", n)
	}
}

// TestBinOpenSessionAllocs pins a warmed binary open, client and server
// together in one process: the call scratch is borrowed from the client,
// so an open allocates its session, its mirror, its shape and its id on
// the client and its session on the server, and no channel, timer or
// frame buffer.
func TestBinOpenSessionAllocs(t *testing.T) {
	srv := newTestServer(t, testModel(t, 3, 5), nil, Config{})
	c := NewBinClient(startBinServer(t, srv))
	defer c.Close()
	ctx := context.Background()
	open := func() {
		if _, err := c.OpenSession(ctx, SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		open()
	}
	if n := testing.AllocsPerRun(100, open); n > 8 {
		t.Errorf("a warmed binary OpenSession allocates %v times in process, want at most 8", n)
	}
}

// TestBinClientSharesWrite pins the combining send side over net.Pipe,
// whose writes block until the far end reads them and whose reads each
// return the bytes of one write. While the first caller's write is
// blocked, N more callers and a window's Start append their frames, and
// the window's Flush returns at once; all N+1 frames then leave in
// exactly one following write.
func TestBinClientSharesWrite(t *testing.T) {
	const n = 8
	end, far := net.Pipe()
	defer far.Close()
	far.SetDeadline(time.Now().Add(30 * time.Second))
	c := NewBinClient("pipe")
	c.SetCallTimeout(time.Minute)
	c.mc = newMuxConn(end)
	defer c.Close()
	ctx := context.Background()
	frameLen := len(wire.FinishFrame(wire.AppendCreateReq(wire.BeginFrame(nil), optionsToWire(SessionOptions{})), wire.TCreate, 1))
	pendingBytes := func(flushing bool, want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mc.wmu.Lock()
			got, fl := len(c.mc.out), c.mc.flushing
			c.mc.wmu.Unlock()
			if got == want && fl == flushing {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d bytes pending (flushing %v), want %d (flushing %v)", got, fl, want, flushing)
			}
		}
	}
	errs := make(chan error, n+1)
	call := func() {
		var b BinCaller
		_, err := b.Call(ctx, c, &FrontReq{Type: wire.TCreate})
		errs <- err
	}

	go call()
	pendingBytes(true, 0) // the first caller took its frame into its write
	for i := 0; i < n; i++ {
		go call()
	}
	var w BinCaller
	w.Start(c, &FrontReq{Type: wire.TCreate})
	pendingBytes(true, (n+1)*frameLen)
	flushed := make(chan struct{})
	go func() { c.Flush(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush waited for the write in progress")
	}

	buf := make([]byte, 64<<10)
	var answers []byte
	for i, want := range []int{1, n + 1} {
		k, err := far.Read(buf)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if k != want*frameLen {
			t.Fatalf("write %d carried %d bytes, want %d frames of %d", i, k, want, frameLen)
		}
		for p := buf[:k]; len(p) > 0; p = p[frameLen:] {
			h, err := wire.ParseHeader(p)
			if err != nil || h.Type != wire.TCreate {
				t.Fatalf("write %d: frame type %d, %v", i, h.Type, err)
			}
			ok := wire.AppendCreateOK(wire.BeginFrame(nil), uint64(h.ReqID), 1, []int{3})
			answers = append(answers, wire.FinishFrame(ok, wire.TCreateOK, h.ReqID)...)
		}
	}
	if _, err := far.Write(answers); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+1; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if _, err := w.Await(ctx); err != nil {
		t.Errorf("window call: %v", err)
	}
}
