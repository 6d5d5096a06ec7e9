package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"slices"
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
		info, err := c.Create(context.Background(), bc, serve.SessionOptions{Seed: seed})
		if err != nil {
			t.Fatalf("create %d: %v", d, err)
		}
		handles = append(handles, info.Handle)
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
			round = appendDecide(round, uint32(i), handles[i], router.Epoch(), 0, obs)
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
// slots, and the connection closed after the window's write.
func TestRouterWindowSemantics(t *testing.T) {
	model := testModel(t, 6, 4)
	_, router, addr := testFleetRouter(t, model, 2, 11)
	bc := serve.NewBinClient(addr)
	defer bc.Close()
	optsA := serve.SessionOptions{Epsilon: 0.3, Seed: 21}
	optsB := serve.SessionOptions{Epsilon: 0.3, Seed: 22}
	var c serve.BinCaller
	infoA, err := c.Create(context.Background(), bc, optsA)
	if err != nil {
		t.Fatalf("create A: %v", err)
	}
	infoB, err := c.Create(context.Background(), bc, optsB)
	if err != nil {
		t.Fatalf("create B: %v", err)
	}
	obs1, obs2 := testObs(model), testObs(model)
	for i := range obs2 {
		obs2[i].Utilization, obs2[i].DemandRatio = 0.95, 1.2
	}

	var frames []byte
	ep := router.Epoch()
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
}

// stalledShard is a shard that opens sessions and never answers a decide.
func stalledShard(t *testing.T) string {
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
					if h.Type != wire.TCreate {
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

// TestRouterStalledShardCostsOneTimeoutPerWindow: eight decide frames
// pipelined to a shard that never answers all come back as retryable
// errors within one call timeout of each other — every forward of the
// window is in flight at once — instead of one timeout after another.
func TestRouterStalledShardCostsOneTimeoutPerWindow(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	router, err := NewRouter(RouterConfig{RingSeed: 1, CallTimeout: callTimeout},
		[]ShardSpec{{Name: "stalled", BinAddr: stalledShard(t)}})
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
		info, err := c.Create(context.Background(), bc, serve.SessionOptions{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		frames = appendDecide(frames, uint32(i), info.Handle, info.Epoch, 1, obs)
	}
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
		info, err := c.Create(context.Background(), bc, serve.SessionOptions{Seed: seed})
		if err != nil {
			t.Fatalf("create on %s: %v", owner, err)
		}
		handles[owner] = info.Handle
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

	obs, ep := testObs(model), router.Epoch()
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
