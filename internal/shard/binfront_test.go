package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// rawConn is an allocation-free device connection: it writes pre-encoded
// frames and reads answers into reused scratch.
type rawConn struct {
	t       testing.TB
	c       net.Conn
	br      *bufio.Reader
	hdr     [wire.HeaderSize]byte
	payload []byte
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (rc *rawConn) write(frames []byte) {
	if _, err := rc.c.Write(frames); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

// read returns the next answer's header and payload (valid until the next
// read).
func (rc *rawConn) read() (wire.Header, []byte) {
	h, p, err := wire.ReadFrame(rc.br, &rc.hdr, rc.payload)
	rc.payload = p
	if err != nil {
		rc.t.Fatalf("read answer: %v", err)
	}
	return h, p
}

// appendDecide appends one sealed decide frame to dst.
func appendDecide(dst []byte, reqID uint32, handle uint64, epoch uint32, seq uint64, obs []serve.Observation) []byte {
	return append(dst, wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), handle, epoch, seq, obs), wire.TDecide, reqID)...)
}

// createReq is the request a one-call create of opts sends.
func createReq(opts serve.SessionOptions) *serve.FrontReq {
	return &serve.FrontReq{Type: wire.TCreate, Opts: opts}
}

// errorCode decodes an answer that must be an error frame.
func errorCode(t testing.TB, h wire.Header, p []byte) uint16 {
	t.Helper()
	if h.Type != wire.TError {
		t.Fatalf("answer %d: type %d, want an error frame", h.ReqID, h.Type)
	}
	var ef wire.ErrorFrame
	if err := wire.ParseError(p, &ef); err != nil {
		t.Fatalf("answer %d: %v", h.ReqID, err)
	}
	return ef.Code
}

// TestRouterWindowAllocFree pins the router's binary decide path at zero
// allocations for every window size, a window of one included — router,
// shard clients and shards together: a raw client pipelines rounds of 1,
// 2, 4 and 8 decide frames for sessions on both shards in one write each.
func TestRouterWindowAllocFree(t *testing.T) {
	model := testModel(t, 3, 5)
	_, router, addr := testFleetRouter(t, model, 2, 7)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	ring := NewRing(7, 0)
	for _, sp := range router.Shards() {
		ring.Add(sp.Name)
	}
	var c serve.BinCaller
	var handles []uint64
	owners := map[string]bool{}
	for d := 0; d < 8; d++ {
		seed := serve.DeviceSeed(4, d)
		ans, err := c.Call(context.Background(), bc, createReq(serve.SessionOptions{Seed: seed}))
		if err != nil {
			t.Fatalf("create %d: %v", d, err)
		}
		handles = append(handles, ans.Info.Handle)
		owner, _ := ring.Owner(seed)
		owners[owner] = true
	}
	if len(owners) != 2 {
		t.Fatalf("test seeds landed on %d shards, want 2", len(owners))
	}

	rc := dialRaw(t, addr)
	obs := testObs(model)
	var round []byte
	for _, n := range []int{1, 2, 4, 8} {
		round = round[:0]
		for i := 0; i < n; i++ {
			round = appendDecide(round, uint32(i), handles[i], router.cfg.Epoch, 0, obs)
		}
		send := func() {
			rc.write(round)
			for i := 0; i < n; i++ {
				if h, _ := rc.read(); h.Type != wire.TDecideOK || h.ReqID != uint32(i) {
					t.Fatalf("round of %d, answer %d: type %d for request %d", n, i, h.Type, h.ReqID)
				}
			}
		}
		for i := 0; i < 10; i++ { // warm the window, the shard clients and the shards
			send()
		}
		if a := testing.AllocsPerRun(100, send); a != 0 {
			t.Errorf("a pipelined round of %d decide frames through the router allocates %v times, want 0", n, a)
		}
	}
}

// TestRouterWindowSemantics sends one write holding, in order: session A
// seq 1, session B seq 1, a handle the router never minted, session A seq
// 2, and a malformed decide. The answers must come back in frame order,
// A's two frames decided in sequence exactly as a single process decides
// them, the unknown handle and the malformed frame answered in their own
// slots, and the connection closed after the window's write. A second
// write mixes every request type into one window — a create, a decide, a
// reward, a close, a decide on the closed handle, a close of an unknown
// handle and a malformed frame — and must be answered in frame order with
// the codes serving one frame at a time gives; the session the window
// created then serves a decide.
func TestRouterWindowSemantics(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 11)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	optsA := serve.SessionOptions{Epsilon: 0.3, Seed: 21}
	optsB := serve.SessionOptions{Epsilon: 0.3, Seed: 22}
	var c serve.BinCaller
	ansA, err := c.Call(context.Background(), bc, createReq(optsA))
	if err != nil {
		t.Fatalf("create A: %v", err)
	}
	infoA := ansA.Info
	ansB, err := c.Call(context.Background(), bc, createReq(optsB))
	if err != nil {
		t.Fatalf("create B: %v", err)
	}
	infoB := ansB.Info
	obs1, obs2 := testObs(model), testObs(model)
	for i := range obs2 {
		obs2[i].Utilization, obs2[i].DemandRatio = 0.95, 1.2
	}

	var frames []byte
	ep := router.cfg.Epoch
	frames = appendDecide(frames, 1, infoA.Handle, ep, 1, obs1)
	frames = appendDecide(frames, 2, infoB.Handle, ep, 1, obs1)
	frames = appendDecide(frames, 3, 999, ep, 1, obs1)
	frames = appendDecide(frames, 4, infoA.Handle, ep, 2, obs2)
	frames = append(frames, wire.FinishFrame(wire.AppendDecideReq(wire.BeginFrame(nil), infoA.Handle, ep, 3, nil), wire.TDecide, 5)...)
	rc := dialRaw(t, addr)
	rc.write(frames)

	var gotA [][]int
	for want := uint32(1); want <= 5; want++ {
		h, p := rc.read()
		if h.ReqID != want {
			t.Fatalf("answer for request %d arrived in slot %d", h.ReqID, want)
		}
		switch want {
		case 1, 2, 4:
			if h.Type != wire.TDecideOK {
				t.Fatalf("request %d: type %d (code %d), want a decision", want, h.Type, errorCode(t, h, p))
			}
			var ok wire.DecideOK
			if err := wire.ParseDecideOK(p, &ok); err != nil {
				t.Fatalf("request %d: %v", want, err)
			}
			if want != 2 {
				gotA = append(gotA, append([]int(nil), ok.Levels...))
			}
		case 3:
			if code := errorCode(t, h, p); code != wire.CodeUnknownSession {
				t.Fatalf("unknown handle answered code %d, want %d", code, wire.CodeUnknownSession)
			}
		case 5:
			if code := errorCode(t, h, p); code != wire.CodeBadRequest {
				t.Fatalf("malformed decide answered code %d, want %d", code, wire.CodeBadRequest)
			}
		}
	}
	if _, err := rc.br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection still open after a malformed frame: %v", err)
	}

	oracle, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()
	osess, err := oracle.CreateSession(optsA)
	if err != nil {
		t.Fatalf("oracle session: %v", err)
	}
	for i, obs := range [][]serve.Observation{obs1, obs2} {
		want, err := osess.Decide(obs)
		if err != nil {
			t.Fatalf("oracle decide %d: %v", i, err)
		}
		if !slices.Equal(gotA[i], want) {
			t.Fatalf("A's decide %d through the window: %v, single process: %v", i+1, gotA[i], want)
		}
	}

	hb := infoB.Handle
	mixed := []struct {
		typ     byte
		payload []byte
		want    byte   // answer type
		code    uint16 // an error answer's code
	}{
		{wire.TCreate, wire.AppendCreateReq(wire.BeginFrame(nil), wire.CreateReq{Seed: 23}), wire.TCreateOK, 0},
		{wire.TDecide, wire.AppendDecideReq(wire.BeginFrame(nil), hb, ep, 2, obs2), wire.TDecideOK, 0},
		{wire.TReward, wire.AppendRewardReq(wire.BeginFrame(nil), wire.RewardReq{Handle: hb, Epoch: ep, Seq: 1, Reward: -1}), wire.TRewardOK, 0},
		{wire.TClose, wire.AppendCloseReq(wire.BeginFrame(nil), wire.CloseReq{Handle: hb}), wire.TCloseOK, 0},
		{wire.TDecide, wire.AppendDecideReq(wire.BeginFrame(nil), hb, ep, 3, obs1), wire.TError, wire.CodeUnknownSession},
		{wire.TClose, wire.AppendCloseReq(wire.BeginFrame(nil), wire.CloseReq{Handle: 999}), wire.TError, wire.CodeNoSession},
		{wire.TReward, append(wire.BeginFrame(nil), 1, 2, 3), wire.TError, wire.CodeBadRequest},
	}
	frames = frames[:0]
	for i, m := range mixed {
		frames = append(frames, wire.FinishFrame(m.payload, m.typ, uint32(10+i))...)
	}
	rc = dialRaw(t, addr)
	rc.write(frames)
	var created wire.CreateOK
	for i, m := range mixed {
		h, p := rc.read()
		if h.ReqID != uint32(10+i) || h.Type != m.want {
			t.Fatalf("mixed answer %d: type %d for request %d, want type %d for request %d", i, h.Type, h.ReqID, m.want, 10+i)
		}
		var stats wire.Stats
		switch m.want {
		case wire.TCreateOK:
			if err := wire.ParseCreateOK(p, &created); err != nil || created.Epoch != ep || !slices.Equal(created.NumLevels, []int{6, 4}) {
				t.Fatalf("create answered %+v, %v", created, err)
			}
		case wire.TRewardOK, wire.TCloseOK:
			if err := wire.ParseStats(p, &stats); err != nil || stats.Decisions != 2 || stats.Rewards != 1 {
				t.Fatalf("mixed answer %d: ledger %+v, %v; want 2 decisions, 1 reward", i, stats, err)
			}
		case wire.TError:
			if code := errorCode(t, h, p); code != m.code {
				t.Fatalf("mixed answer %d: code %d, want %d", i, code, m.code)
			}
		}
	}
	if _, err := rc.br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection still open after a malformed frame: %v", err)
	}
	decide := &serve.FrontReq{Type: wire.TDecide, Handle: created.Handle, Epoch: ep, Seq: 1, Obs: obs1}
	if _, err := c.Call(context.Background(), bc, decide); err != nil {
		t.Fatalf("decide on the session the window created: %v", err)
	}
}

// stalledShard is a shard that opens sessions while opens is set and
// never answers anything else.
func stalledShard(t *testing.T, opens *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var hdr [wire.HeaderSize]byte
				var handle uint64
				for {
					h, _, err := wire.ReadFrame(br, &hdr, nil)
					if err != nil {
						return
					}
					if h.Type != wire.TCreate || !opens.Load() {
						continue
					}
					handle++
					ok := wire.FinishFrame(wire.AppendCreateOK(wire.BeginFrame(nil), handle, 1, []int{6, 4}), wire.TCreateOK, h.ReqID)
					if _, err := conn.Write(ok); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterStalledShardCostsOneTimeoutPerWindow: eight decide, reward or
// create frames pipelined to a shard that never answers them all come back
// as retryable errors within one call timeout of each other — every
// forward of the window is in flight at once — instead of one timeout
// after another.
func TestRouterStalledShardCostsOneTimeoutPerWindow(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		typ  byte
	}{{"decide", wire.TDecide}, {"reward", wire.TReward}, {"create", wire.TCreate}} {
		typ := tc.typ
		t.Run(tc.name, func(t *testing.T) {
			var opens atomic.Bool
			opens.Store(true)
			router, err := NewRouter(RouterConfig{RingSeed: 1, CallTimeout: callTimeout},
				[]ShardSpec{{Name: "stalled", BinAddr: stalledShard(t, &opens)}})
			if err != nil {
				t.Fatalf("router: %v", err)
			}
			defer router.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- router.ServeBin(ln) }()
			defer func() {
				router.Close()
				<-done
			}()

			bc := serve.NewBinClient(ln.Addr().String())
			defer bc.Close()
			var c serve.BinCaller
			var frames []byte
			obs := make([]serve.Observation, 2)
			for i := 0; i < 8; i++ {
				ans, err := c.Call(context.Background(), bc, createReq(serve.SessionOptions{Seed: uint64(i + 1)}))
				if err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
				h, ep := ans.Info.Handle, ans.Info.Epoch
				p := wire.BeginFrame(nil)
				switch typ {
				case wire.TDecide:
					p = wire.AppendDecideReq(p, h, ep, 1, obs)
				case wire.TReward:
					p = wire.AppendRewardReq(p, wire.RewardReq{Handle: h, Epoch: ep, Seq: 1, Reward: -1})
				case wire.TCreate:
					p = wire.AppendCreateReq(p, wire.CreateReq{Seed: uint64(100 + i)})
				}
				frames = append(frames, wire.FinishFrame(p, typ, uint32(i))...)
			}
			opens.Store(false)
			rc := dialRaw(t, ln.Addr().String())
			start := time.Now()
			rc.write(frames)
			for i := 0; i < 8; i++ {
				h, p := rc.read()
				if code := errorCode(t, h, p); h.ReqID != uint32(i) || code != wire.CodeServerClosed {
					t.Fatalf("answer %d: request %d, code %d, want request %d answered %d", i, h.ReqID, code, i, wire.CodeServerClosed)
				}
			}
			if took := time.Since(start); took > 2*callTimeout {
				t.Fatalf("8 forwards to a stalled shard took %v, want under %v (one call timeout per window)", took, 2*callTimeout)
			}
		})
	}
}

// heldShard is a shard that reports the type of every frame it reads on
// seen, holds every create's answer until release is closed, and answers
// a close at once.
func heldShard(t *testing.T, release <-chan struct{}, seen chan<- byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var wmu sync.Mutex
				write := func(frame []byte) {
					wmu.Lock()
					defer wmu.Unlock()
					conn.Write(frame)
				}
				br := bufio.NewReader(conn)
				var hdr [wire.HeaderSize]byte
				for handle := uint64(1); ; handle++ {
					h, _, err := wire.ReadFrame(br, &hdr, nil)
					if err != nil {
						return
					}
					seen <- h.Type
					switch h.Type {
					case wire.TCreate:
						go func(handle uint64, reqID uint32) {
							<-release
							write(wire.FinishFrame(wire.AppendCreateOK(wire.BeginFrame(nil), handle, 1, []int{6, 4}), wire.TCreateOK, reqID))
						}(handle, h.ReqID)
					case wire.TClose:
						write(wire.FinishFrame(wire.AppendStats(wire.BeginFrame(nil), wire.Stats{}), wire.TCloseOK, h.ReqID))
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRouterReplacesOpenWhenRingMoves: a create is in flight on its key's
// owner when a shard that takes the key over joins the ring. Its answer
// must not name the old owner's session: the router closes that one and
// places the create again on the new owner, and the device's next decide
// is served there.
func TestRouterReplacesOpenWhenRingMoves(t *testing.T) {
	model := testModel(t, 6, 4)
	fleet, err := NewFleet(model, 1, serve.Config{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	live := fleet.Specs()[0]
	release := make(chan struct{})
	seen := make(chan byte, 8)
	held := ShardSpec{Name: "held", BinAddr: heldShard(t, release, seen)}
	router, err := NewRouter(RouterConfig{RingSeed: 1}, []ShardSpec{held})
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
		<-done
	})

	// A seed the live shard owns once it joins.
	ring := NewRing(1, 0)
	ring.Add(held.Name)
	ring.Add(live.Name)
	seed := uint64(1)
	for owner, _ := ring.Owner(seed); owner != live.Name; owner, _ = ring.Owner(seed) {
		seed++
	}

	bc := serve.NewBinClient(ln.Addr().String())
	defer bc.Close()
	var c serve.BinCaller
	type result struct {
		ans serve.FrontAns
		err error
	}
	opened := make(chan result, 1)
	go func() {
		ans, err := c.Call(context.Background(), bc, createReq(serve.SessionOptions{Seed: seed}))
		opened <- result{ans, err}
	}()
	next := func(want byte, what string) {
		t.Helper()
		select {
		case typ := <-seen:
			if typ != want {
				t.Fatalf("the held shard read frame type %d, want %s", typ, what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the held shard never read %s", what)
		}
	}
	next(wire.TCreate, "the create")
	if err := router.AddShard(live); err != nil {
		t.Fatalf("add shard: %v", err)
	}
	close(release)
	var res result
	select {
	case res = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("the create was never answered")
	}
	if res.err != nil {
		t.Fatalf("create across the ring move: %v", res.err)
	}
	next(wire.TClose, "the close of the session it opened")
	decide := &serve.FrontReq{Type: wire.TDecide, Handle: res.ans.Info.Handle, Epoch: res.ans.Info.Epoch, Seq: 1, Obs: testObs(model)}
	if _, err := c.Call(context.Background(), bc, decide); err != nil {
		t.Fatalf("decide on the re-placed session: %v", err)
	}
	met := fleet.Server(live.Name).Registry().Snapshot()
	if got := met.Value("serve_sessions_created_total", ""); got != 1 {
		t.Fatalf("the new owner created %v sessions, want 1", got)
	}
	if got := router.sessionsCreated.Load(); got != 1 {
		t.Fatalf("router_sessions_created_total %d, want 1", got)
	}
}

// unreachable rebinds addr to a listener whose accept queue is full — a
// backlog of 0 plus one connection nobody accepts — so a dial to addr
// blocks until its timeout instead of being refused.
func unreachable(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { ln.Close() })
	raw, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	if err := raw.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Fatalf("backlog 0: %v %v", err, lerr)
	}
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("fill the accept queue: %v", err)
	}
	t.Cleanup(func() { filler.Close() })
}

// TestRouterRedialDoesNotStallWindow: one write holds decides for shard A,
// shard B and A again, and B's connection is gone with its address
// unreachable, so B's forward dials for a whole call timeout. A's forwards
// must still be answered: the window flushes them before the dial and
// takes their answers although their deadlines passed meanwhile. B's frame
// answers with the retryable server-closed code.
func TestRouterRedialDoesNotStallWindow(t *testing.T) {
	const callTimeout = 300 * time.Millisecond
	model := testModel(t, 6, 4)
	fleet, err := NewFleet(model, 2, serve.Config{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	router, err := NewRouter(RouterConfig{RingSeed: 1, CallTimeout: callTimeout}, fleet.Specs())
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
		<-done
	})

	// One session on each shard.
	specA, specB := fleet.Specs()[0], fleet.Specs()[1]
	bc := serve.NewBinClient(ln.Addr().String())
	defer bc.Close()
	var c serve.BinCaller
	handles := map[string]uint64{}
	for d := 0; len(handles) < 2; d++ {
		seed := serve.DeviceSeed(1, d)
		owner, _ := router.ring.Owner(seed)
		if _, ok := handles[owner]; ok {
			continue
		}
		ans, err := c.Call(context.Background(), bc, createReq(serve.SessionOptions{Seed: seed}))
		if err != nil {
			t.Fatalf("create on %s: %v", owner, err)
		}
		handles[owner] = ans.Info.Handle
	}

	// Cut B: its shard dies, the router's client to it notices, and B's
	// address stops answering dials.
	clientB := router.shards[specB.Name].bc
	if err := fleet.KillShard(specB.Name); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); clientB.Connected(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router's client never saw shard B go away")
		}
	}
	unreachable(t, specB.BinAddr)

	obs, ep := testObs(model), router.cfg.Epoch
	var frames []byte
	frames = appendDecide(frames, 1, handles[specA.Name], ep, 1, obs)
	frames = appendDecide(frames, 2, handles[specB.Name], ep, 1, obs)
	frames = appendDecide(frames, 3, handles[specA.Name], ep, 2, obs)
	rc := dialRaw(t, ln.Addr().String())
	rc.write(frames)
	for want := uint32(1); want <= 3; want++ {
		h, p := rc.read()
		if h.ReqID != want {
			t.Fatalf("answer for request %d arrived in slot %d", h.ReqID, want)
		}
		if want == 2 {
			if code := errorCode(t, h, p); code != wire.CodeServerClosed {
				t.Fatalf("the unreachable shard's frame answered code %d, want %d", code, wire.CodeServerClosed)
			}
			continue
		}
		if h.Type != wire.TDecideOK {
			t.Fatalf("shard A's request %d answered code %d behind a redialing shard, want a decision", want, errorCode(t, h, p))
		}
	}
}
