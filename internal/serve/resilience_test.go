package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/leaktest"
	"rlpm/internal/wire"
)

// TestBinPendingCallFailsFastOnMidResponseClose is the regression test for
// the fail-fast contract: when the server closes the connection after
// reading a request but before answering, the pending call must surface a
// typed ErrConnLost immediately — not sit out the full call timeout.
func TestBinPendingCallFailsFastOnMidResponseClose(t *testing.T) {
	defer leaktest.Check(t)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// A rude server: swallow whatever arrives for a moment, then hang up
	// without ever responding.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
	}()

	c := NewBinClient(ln.Addr().String())
	defer c.Close()
	c.SetCallTimeout(30 * time.Second) // far beyond the test timeout: failure must not come from here
	c.SetRetryBudget(0)                // surface the first error, no retries

	start := time.Now()
	_, err = c.OpenSession(context.Background(), SessionOptions{})
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("open against hanging-up server: %v, want ErrConnLost", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("pending call took %v to fail; want fail-fast on connection close", e)
	}
}

// TestDecideSeqDedupAndBadSeq exercises the sequence-number contract
// directly: a replayed number returns the cached decision without
// advancing any state, and a gap is a typed protocol error.
func TestDecideSeqDedupAndBadSeq(t *testing.T) {
	srv := newTestServer(t, testModel(t, 4, 6), nil, Config{})
	sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := make([]Observation, 2)
	first := make([]int, 2)
	if _, err := sess.DecideSeq(1, obs, first); err != nil {
		t.Fatalf("seq 1: %v", err)
	}

	// Replay of seq 1 must return the identical decision and be counted.
	replay := make([]int, 2)
	replayed, err := sess.DecideSeq(1, obs, replay)
	if err != nil || !replayed {
		t.Fatalf("replay of seq 1: replayed=%v err=%v", replayed, err)
	}
	if replay[0] != first[0] || replay[1] != first[1] {
		t.Fatalf("replayed decision %v != original %v", replay, first)
	}
	if n := seriesValue(t, srv, "serve_decides_deduped_total", ""); n != 1 {
		t.Fatalf("serve_decides_deduped_total = %d, want 1", n)
	}

	// A replay must not have advanced the RNG: seq 2 now and seq 2 on a
	// twin session that never replayed must agree.
	twin, err := srv.CreateSession(SessionOptions{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatalf("twin: %v", err)
	}
	tw := make([]int, 2)
	if _, err := twin.DecideSeq(1, obs, tw); err != nil {
		t.Fatalf("twin seq 1: %v", err)
	}
	next, twNext := make([]int, 2), make([]int, 2)
	if _, err := sess.DecideSeq(2, obs, next); err != nil {
		t.Fatalf("seq 2: %v", err)
	}
	if _, err := twin.DecideSeq(2, obs, twNext); err != nil {
		t.Fatalf("twin seq 2: %v", err)
	}
	if next[0] != twNext[0] || next[1] != twNext[1] {
		t.Fatalf("replay perturbed the RNG stream: %v vs twin %v", next, twNext)
	}

	// Gaps are protocol errors, not silently served.
	if _, err := sess.DecideSeq(5, obs, next); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("seq gap: %v, want ErrBadSeq", err)
	}
	// And old sequence numbers (beyond the one-deep replay window) too.
	if _, err := sess.DecideSeq(1, obs, next); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("stale seq: %v, want ErrBadSeq", err)
	}
}

// TestSessionTTLReaping verifies that touching a session keeps it alive
// and that idle sessions are reaped. The sweep runs with cutoffs read from
// the session's own last request, so no sleep decides the outcome: swept
// at that instant the session is kept, one nanosecond past it reaped.
// Then the background loop must reap an idle session by itself.
func TestSessionTTLReaping(t *testing.T) {
	defer leaktest.Check(t)()
	m := testModel(t, 4, 6)
	srv, err := New(m, nil, Config{}) // no TTL: only the test sweeps
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	obs := make([]Observation, 2)
	for i := 0; i < 10; i++ {
		if _, err := sess.Decide(obs); err != nil {
			t.Fatalf("decide while active: %v", err)
		}
		srv.reapIdle(sess.lastActive.Load())
		if n := seriesValue(t, srv, "serve_sessions_reaped_total", ""); n != 0 {
			t.Fatalf("a sweep at the session's last request reaped %d sessions", n)
		}
	}
	srv.reapIdle(sess.lastActive.Load() + 1)
	if n := seriesValue(t, srv, "serve_sessions_reaped_total", ""); n != 1 {
		t.Fatalf("a sweep past the session's last request reaped %d sessions, want 1", n)
	}
	if _, err := srv.CloseSessionByHandle(sess.handle, 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("close after reap: %v, want ErrNoSession", err)
	}

	// The background loop reaps an idle session past a 50 ms TTL.
	loop, err := New(m, nil, Config{SessionTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer loop.Close()
	idle, err := loop.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for seriesValue(t, loop, "serve_sessions_reaped_total", "") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := loop.CloseSessionByHandle(idle.handle, 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("close after reap: %v, want ErrNoSession", err)
	}
}

// TestEpochMismatchIsUnknownSession pins the resume trigger: a handle or
// id presented with a stale epoch maps to ErrUnknownSession (which also
// satisfies errors.Is(err, ErrNoSession) so untyped clients still work).
func TestEpochMismatchIsUnknownSession(t *testing.T) {
	m := testModel(t, 4, 6)
	srv, err := New(m, nil, Config{Epoch: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

	if _, err := srv.SessionByHandleEpoch(sess.handle, 2); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("stale epoch by handle: %v, want ErrUnknownSession", err)
	}
	if _, err := srv.SessionByHandleEpoch(handleOf(sessionID(sess.handle)), 2); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("stale epoch by id: %v, want ErrUnknownSession", err)
	}
	if !errors.Is(ErrUnknownSession, ErrNoSession) {
		t.Fatal("ErrUnknownSession must wrap ErrNoSession")
	}
	// The current epoch and the legacy wildcard 0 both resolve.
	if _, err := srv.SessionByHandleEpoch(sess.handle, 3); err != nil {
		t.Fatalf("current epoch: %v", err)
	}
	if _, err := srv.SessionByHandleEpoch(sess.handle, 0); err != nil {
		t.Fatalf("legacy epoch 0: %v", err)
	}
	// A close is checked the same way: a stale epoch closes nothing.
	if _, err := srv.CloseSessionByHandle(sess.handle, 2); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("stale-epoch close: %v, want ErrUnknownSession", err)
	}
	if _, err := srv.CloseSessionByHandle(sess.handle, 3); err != nil {
		t.Fatalf("current-epoch close: %v", err)
	}
	if _, err := srv.CloseSessionByHandle(sess.handle, 3); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("second close: %v, want ErrUnknownSession", err)
	}
}

// TestCloseNamesItsEpoch: handles restart at 1 in every server
// incarnation, so a close carries the epoch its handle came from. After a
// restart, device X's close must not close device Y's session under the
// same handle: it answers ErrUnknownSession, X resumes and closes its own
// session with its own ledger, and Y's stays live. On both wires.
func TestCloseNamesItsEpoch(t *testing.T) {
	m := testModel(t, 3, 5)
	obs := testObs(m, 4, 3)
	for _, proto := range []string{"json", "bin"} {
		t.Run(proto, func(t *testing.T) {
			ctx := context.Background()
			cfg := ChaosConfig{Proto: proto}
			inc, err := startIncarnation(m, cfg, "127.0.0.1:0", 1)
			if err != nil {
				t.Fatalf("incarnation 1: %v", err)
			}
			addr := inc.front.ln.Addr().String()
			client, err := NewFleetClient(proto, addr)
			if err != nil {
				inc.crash()
				t.Fatalf("client: %v", err)
			}
			defer client.Close()
			x, err := client.Open(ctx, SessionOptions{Seed: 1})
			if err != nil {
				inc.crash()
				t.Fatalf("open X: %v", err)
			}
			for _, o := range obs {
				if _, err := x.Decide(ctx, o); err != nil {
					inc.crash()
					t.Fatalf("X decide: %v", err)
				}
			}
			inc.crash()
			if inc, err = startIncarnation(m, cfg, addr, 2); err != nil {
				t.Fatalf("incarnation 2: %v", err)
			}
			defer inc.crash()
			y, err := client.Open(ctx, SessionOptions{Seed: 2})
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
			if st.Decisions != uint64(len(obs)) {
				t.Errorf("X's close answered a ledger of %d decisions, want X's own %d", st.Decisions, len(obs))
			}
			if live := seriesValue(t, inc.srv, "serve_sessions", ""); live != 1 {
				t.Errorf("%d live sessions after X's close, want Y's alone", live)
			}
			if _, err := y.Decide(ctx, obs[0]); err != nil {
				t.Fatalf("Y decide after X's close: %v", err)
			}
			if n := seriesValue(t, inc.srv, "serve_resumes_total", ""); n != 1 {
				t.Fatalf("%d resumes, want X's one: Y's session must not have been lost", n)
			}
		})
	}
}

// TestResumeSessionContinuesRNGStream is the unit-level lockstep proof:
// a session resumed on a second server from a client mirror produces
// exactly the decisions the original would have — exploration draws,
// ε decay, demand history and all.
func TestResumeSessionContinuesRNGStream(t *testing.T) {
	m := testModel(t, 4, 6)
	srvA := newTestServer(t, m, nil, Config{})
	srvB := newTestServer(t, m, nil, Config{})

	opts := SessionOptions{Epsilon: 0.8, EpsilonDecay: 0.99, EpsilonMin: 0.05, Seed: 31}
	orig, err := srvA.CreateSession(opts)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	mirror := newSessionMirror(opts, m.NumLevels())
	stream := testObs(m, 77, 20)

	levels := make([]int, 2)
	for i := 0; i < 10; i++ {
		if _, err := orig.DecideSeq(uint64(i+1), stream[i], levels); err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		mirror.ackDecide(stream[i], levels)
	}

	resumed, err := srvB.ResumeSession(mirror.resumeState())
	if err != nil {
		t.Fatalf("ResumeSession: %v", err)
	}
	want, got := make([]int, 2), make([]int, 2)
	// The replay cache survived the hop: a retry of the last pre-restart
	// decide still dedups on the new incarnation (and, as the lockstep
	// checks below prove, without perturbing the RNG stream).
	replayed, err := resumed.DecideSeq(10, stream[9], got)
	if err != nil || !replayed {
		t.Fatalf("replay across resume: replayed=%v err=%v", replayed, err)
	}
	if got[0] != levels[0] || got[1] != levels[1] {
		t.Fatalf("replay across resume returned %v, want cached %v", got, levels)
	}
	for i := 10; i < 20; i++ {
		if _, err := orig.DecideSeq(uint64(i+1), stream[i], want); err != nil {
			t.Fatalf("original decide %d: %v", i, err)
		}
		if _, err := resumed.DecideSeq(uint64(i+1), stream[i], got); err != nil {
			t.Fatalf("resumed decide %d: %v", i, err)
		}
		if want[0] != got[0] || want[1] != got[1] {
			t.Fatalf("period %d: resumed session chose %v, original %v", i, got, want)
		}
	}
	if n := seriesValue(t, srvB, "serve_resumes_total", ""); n != 1 {
		t.Fatalf("serve_resumes_total = %d, want 1", n)
	}
}

// TestDrainWritesFinalCheckpoint verifies the graceful half of shutdown:
// Drain closes binary listeners, waits out live connections, and publishes
// a loadable checkpoint.
func TestDrainWritesFinalCheckpoint(t *testing.T) {
	defer leaktest.Check(t)()
	m := testModel(t, 4, 6)
	path := filepath.Join(t.TempDir(), "final.ckpt")
	srv, err := New(m, nil, Config{CheckpointPath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBin(ln) }()

	c := NewBinClient(ln.Addr().String())
	sess, err := c.OpenSession(context.Background(), SessionOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sess.Decide(context.Background(), make([]Observation, 2)); err != nil {
		t.Fatalf("decide: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeBin after drain: %v", err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if len(snap.Tables) != 2 {
		t.Fatalf("checkpoint has %d tables, want 2", len(snap.Tables))
	}
	c.Close()
}

// TestSaveCheckpointCrashRecovery simulates a crash at every stage of the
// write→sync→rename→dir-sync sequence via injected fsHooks and asserts the
// previously published checkpoint always survives intact.
func TestSaveCheckpointCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	_, good := testSnapshot(t, 3)
	if _, err := SaveCheckpoint(path, good); err != nil {
		t.Fatalf("baseline save: %v", err)
	}
	_, next := testSnapshot(t, 3)
	next.Tables[0][0][0] = 42

	boom := errors.New("injected crash")
	cases := []struct {
		name string
		fs   fsHooks
	}{
		{"sync fails", fsHooks{
			syncFile: func(*os.File) error { return boom },
			rename:   os.Rename, syncDir: syncDir,
		}},
		{"rename fails", fsHooks{
			syncFile: (*os.File).Sync,
			rename:   func(_, _ string) error { return boom }, syncDir: syncDir,
		}},
		// A crash between write and rename: the temp file holds a
		// truncated image and the rename never happens.
		{"crash before rename", fsHooks{
			syncFile: func(f *os.File) error { return f.Truncate(10) },
			rename:   func(_, _ string) error { return boom }, syncDir: syncDir,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := saveCheckpoint(path, next, c.fs); !errors.Is(err, boom) {
				t.Fatalf("crashing save: %v, want injected crash", err)
			}
			snap, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("previous checkpoint unreadable after crash: %v", err)
			}
			if snap.Tables[0][0][0] == 42 {
				t.Fatal("crashed save partially published")
			}
		})
	}

	// The truncated temp image, had it been renamed into place, would have
	// been rejected as corrupt — never silently served.
	trunc := filepath.Join(dir, "torn.ckpt")
	tornFS := fsHooks{
		syncFile: func(f *os.File) error { return f.Truncate(10) },
		rename:   os.Rename, syncDir: syncDir,
	}
	if _, err := saveCheckpoint(trunc, next, tornFS); err != nil {
		t.Fatalf("torn save: %v", err)
	}
	if _, err := LoadCheckpoint(trunc); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("torn checkpoint load: %v, want ErrCheckpointCorrupt", err)
	}
}

// TestOverloadBackoffHintRoundTrips verifies the adaptive hint: an
// overloaded server answers HTTP with 429 + Retry-After, and the client
// error carries the hint as a BackoffError.
func TestOverloadBackoffHintRoundTrips(t *testing.T) {
	srv := newTestServer(t, testModel(t, 4, 6), nil, Config{})
	// Teach the EWMA a long decide time so the hint is non-trivial.
	srv.observeDecide(100 * time.Millisecond)
	hint := srv.backoffHintMs()
	if hint < 5 || hint > 1000 {
		t.Fatalf("backoff hint %dms outside [5ms, 1000ms]", hint)
	}
	if srv.backoffHintMs() != hint {
		t.Fatal("hint not stable across reads")
	}
	// Saturate the EWMA: the hint must clamp, not grow without bound.
	for i := 0; i < 64; i++ {
		srv.observeDecide(10 * time.Second)
	}
	if h := srv.backoffHintMs(); h != 1000 {
		t.Fatalf("saturated hint %dms, want 1000ms clamp", h)
	}

	// A shed decide carries the hint through both fronts: with the
	// in-flight bound parked in the policy pin, a binary decide fails with
	// ErrOverloaded and the hint as its backoff, and a JSON decide answers
	// 429 with the hint in retry_after_ms and, rounded up, Retry-After.
	m := testModel(t, 4, 6)
	gb := newGateBackend(m, 4)
	shed := newTestServer(t, m, gb.SWBackend, Config{MaxBatch: 1})
	shed.observeDecide(100 * time.Millisecond)
	want := time.Duration(shed.backoffHintMs()) * time.Millisecond
	obs := testObs(m, 5, 1)[0]
	var parked sync.WaitGroup
	defer parked.Wait()
	defer close(gb.gate)
	for i := 0; i < 4; i++ {
		sess, err := shed.CreateSession(SessionOptions{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		parked.Add(1)
		go func() {
			defer parked.Done()
			sess.Decide(obs)
		}()
		<-gb.entered
	}
	sess, err := shed.CreateSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	bc := NewBinClient(startBinServer(t, shed))
	defer bc.Close()
	var c BinCaller
	if _, err := c.Call(context.Background(), bc, &FrontReq{Type: wire.TDecide, Handle: sess.handle, Epoch: shed.cfg.Epoch, Seq: 1, Obs: obs}); !errors.Is(err, ErrOverloaded) || RetryAfter(err) != want {
		t.Fatalf("binary shed answered %v, retry after %v; want ErrOverloaded, %v", err, RetryAfter(err), want)
	}

	hs := httptest.NewServer(shed.Handler())
	defer hs.Close()
	raw, err := json.Marshal(DecideRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/sessions/"+sessionID(sess.handle)+"/decide", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || body.RetryAfterMs != want.Milliseconds() || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("JSON shed answered %d, retry_after_ms %d, Retry-After %q; want 429, %d, \"1\"",
			resp.StatusCode, body.RetryAfterMs, resp.Header.Get("Retry-After"), want.Milliseconds())
	}
}

// gateBackend parks every frame that pins the live model until the gate
// opens, signalling each arrival on entered (room for arrivals of them),
// so a test can hold decides in flight.
type gateBackend struct {
	*SWBackend
	entered chan struct{}
	gate    chan struct{}
}

func newGateBackend(m *Model, arrivals int) *gateBackend {
	g := &gateBackend{SWBackend: NewSWBackend(m), entered: make(chan struct{}, arrivals), gate: make(chan struct{})}
	g.park = func(*Model) {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return g
}

// TestOverloadBackpressure pins overload control without a queue: with
// decides parked inside the policy pin, exactly the in-flight bound
// (4×MaxBatch) is admitted, and every further decide fails fast with
// ErrOverloaded, counted by the rejected counter. Releasing the parked
// decides resolves every admitted one — shedding load loses only the shed
// decides — and a shed decide changed no session state, so its retry
// returns the oracle's levels.
func TestOverloadBackpressure(t *testing.T) {
	m := testModel(t, 3, 5)
	const bound, extra = 8, 64
	gb := newGateBackend(m, bound+extra)
	srv := newTestServer(t, m, gb.SWBackend, Config{MaxBatch: bound / 4})
	released := false
	defer func() {
		if !released {
			close(gb.gate) // unblock the parked decides if the test bailed early
		}
	}()

	obs := testObs(m, 3, 1)[0]
	errc := make(chan error, bound+extra)
	var wg sync.WaitGroup
	for i := 0; i < bound+extra; i++ {
		sess, err := srv.CreateSession(SessionOptions{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.Decide(obs)
			errc <- err
		}()
	}
	for i := 0; i < bound; i++ {
		select {
		case <-gb.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d admitted decides reached the policy", i, bound)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.batchRejected.Load() < extra {
		if time.Now().After(deadline) {
			t.Fatalf("rejected counter stuck at %d, want %d", srv.batchRejected.Load(), extra)
		}
		runtime.Gosched()
	}
	if got := seriesValue(t, srv, "serve_decides_inflight", ""); got != bound {
		t.Fatalf("decides in flight %d while parked, want the bound %d", got, bound)
	}

	// A shed decide on an exploring session: it must leave no trace.
	shedOpts := SessionOptions{Epsilon: 0.5, EpsilonDecay: 0.9, EpsilonMin: 0.1, Seed: 11}
	shed, err := srv.CreateSession(shedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shed.Decide(obs); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("decide past the bound: %v, want ErrOverloaded", err)
	}

	close(gb.gate)
	released = true
	wg.Wait()
	var ok, rejected int
	for i := 0; i < bound+extra; i++ {
		switch err := <-errc; {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != bound || rejected != extra {
		t.Fatalf("got %d ok + %d rejected, want %d + %d", ok, rejected, bound, extra)
	}
	if got := srv.batchRejected.Load(); got != extra+1 {
		t.Fatalf("rejected counter %d, want %d", got, extra+1)
	}
	got, err := shed.Decide(obs)
	if err != nil {
		t.Fatalf("retry of the shed decide: %v", err)
	}
	if want := newOracle(m, shedOpts).decide(obs); !slices.Equal(got, want) {
		t.Fatalf("retry of the shed decide chose %v, oracle %v: the shed changed session state", got, want)
	}
	if st := shed.stats(); st.Decisions != 1 {
		t.Fatalf("shed session ledger counts %d decisions, want 1", st.Decisions)
	}
	if got := seriesValue(t, srv, "serve_decides_inflight", ""); got != 0 {
		t.Fatalf("decides in flight %d after every decide returned, want 0", got)
	}
}
