// Binary-protocol client: the wire-frame counterpart of Client. All
// sessions multiplex one persistent TCP connection — requests are tagged
// with a client-unique id, a single reader goroutine dispatches responses
// back to the waiting callers, and concurrent calls share one write: a
// call appends its frame to the connection's pending bytes, and the one
// caller that finds no write in progress sends them all — so a fleet of
// device sessions amortizes syscalls instead of paying dial, handshake, or
// HTTP framing per decision.
//
// The client is self-healing: a transport failure fails every in-flight
// call fast with ErrConnLost, the next attempt redials, and each session
// — a RemoteSession, as on the HTTP client — retries with backoff under
// its sequence number so the server can deduplicate. When the server no
// longer knows the session — it was restarted, or reaped the session as
// idle — the session transparently re-creates itself from its mirror
// (TResume) and the caller never sees the gap.

package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/wire"
)

// BinClient talks the internal/wire protocol to a ServeBin listener. One
// shared connection carries every session (the wire protocol's request ids
// exist precisely for this); a transport failure fails all in-flight calls
// and the next call redials.
type BinClient struct {
	addr    string
	timeout time.Duration // per-call deadline
	pol     *retryPolicy

	mu     sync.Mutex
	mc     *muxConn
	closed bool

	// The call scratch of sessions' attempts, idle between attempts. Not a
	// sync.Pool: the race runtime drops pooled entries at random, and a
	// warmed session must not allocate its scratch again.
	fmu  sync.Mutex
	free []*BinCaller

	dials atomic.Uint64 // connections established (first dial + redials)
}

// NewBinClient builds a client for a ServeBin address ("host:port").
func NewBinClient(addr string) *BinClient {
	return &BinClient{
		addr:    addr,
		timeout: 30 * time.Second,
		pol:     newRetryPolicy(uint64(time.Now().UnixNano())),
	}
}

// SetCallTimeout adjusts the per-attempt deadline (default 30s). Chaos
// tests shorten it so a stalled connection turns into a retry quickly.
func (c *BinClient) SetCallTimeout(d time.Duration) { c.timeout = d }

// SetRetryBudget adjusts the total retry window per logical call
// (default 30s). The budget must cover a server restart for transparent
// resume to engage.
func (c *BinClient) SetRetryBudget(d time.Duration) { c.pol.budget = d }

// BinClientStats is the transport-resilience ledger.
type BinClientStats struct {
	Dials   uint64 // connections established, including redials
	Retries uint64 // call attempts beyond the first
	Resumes uint64 // sessions re-created from their mirror
}

// TransportStats reports how hard the resilience machinery worked.
func (c *BinClient) TransportStats() BinClientStats {
	return BinClientStats{
		Dials:   c.dials.Load(),
		Retries: c.pol.retries.Load(),
		Resumes: c.pol.resumes.Load(),
	}
}

// Close tears down the shared connection; in-flight calls fail with the
// close error and later calls fail immediately.
func (c *BinClient) Close() {
	c.mu.Lock()
	mc := c.mc
	c.mc, c.closed = nil, true
	c.mu.Unlock()
	if mc != nil {
		mc.fail(errClientClosed)
	}
}

var errClientClosed = errors.New("serve: binary client closed")

// conn returns the live shared connection, dialing (or redialing after a
// failure) as needed.
func (c *BinClient) conn() (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mc != nil && !c.mc.broken() {
		return c.mc, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.mc = newMuxConn(conn)
	return c.mc, nil
}

// newMuxConn shares conn among the client's calls and starts its reader.
func newMuxConn(conn net.Conn) *muxConn {
	mc := &muxConn{
		c:       conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		pending: make(map[uint32]*muxCall),
	}
	go mc.readLoop()
	return mc
}

// Connected reports whether the client holds a live connection, so a call
// started now would not dial first.
func (c *BinClient) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && c.mc != nil && !c.mc.broken()
}

// muxConn is the shared connection: a send side where concurrent calls
// share one write and a reader goroutine dispatching response frames to
// pending calls by request id.
type muxConn struct {
	c     net.Conn
	br    *bufio.Reader
	reqID atomic.Uint32

	wmu      sync.Mutex // guards out, spare and flushing
	out      []byte     // frames appended and not yet handed to a write
	spare    []byte     // the last write's bytes, reused for the next batch
	flushing bool       // a flusher owns the write; frames appended now ride it

	pmu     sync.Mutex
	pending map[uint32]*muxCall
	err     error // first transport failure; poisons the connection
}

// muxCall is one in-flight request's rendezvous, owned by its BinCaller
// and reused for each of the caller's calls: the response payload is
// copied into the call's own buffer so the reader can move on to the next
// frame while the caller decodes. A call runs in two halves — start sends
// the frame and arms the deadline, await collects the answer — so a
// caller can start many calls before it waits on any of them.
type muxCall struct {
	ch    chan muxResp
	buf   []byte
	timer *time.Timer

	// The call in flight, set by start for await.
	mc      *muxConn
	reqID   uint32
	timeout time.Duration
	err     error // start failed; await reports it without waiting
}

type muxResp struct {
	hdr wire.Header
	err error
}

// init readies a zero muxCall for its first call.
func (call *muxCall) init() {
	if call.ch == nil {
		call.ch = make(chan muxResp, 1)
		call.timer = time.NewTimer(time.Hour)
		stopTimer(call.timer)
	}
}

func (mc *muxConn) broken() bool {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	return mc.err != nil
}

// fail poisons the connection and delivers err to every pending call —
// nothing waits out its full timeout once the transport is known dead.
// Transport errors are wrapped with ErrConnLost so callers (and the retry
// loop) see one typed signal regardless of the underlying failure;
// a deliberate client Close keeps its own sentinel.
func (mc *muxConn) fail(err error) {
	if !errors.Is(err, errClientClosed) && !errors.Is(err, ErrConnLost) {
		err = fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	mc.pmu.Lock()
	if mc.err == nil {
		mc.err = err
	} else {
		err = mc.err
	}
	pend := mc.pending
	mc.pending = nil
	mc.pmu.Unlock()
	mc.c.Close()
	for _, call := range pend {
		call.ch <- muxResp{err: err}
	}
}

// readLoop is the connection's single reader: every response frame is
// matched to its pending call by the echoed request id; frames for
// abandoned calls (timeout, cancelled context) are dropped. A read error
// — disconnect, corrupt frame — kills the whole connection: with one
// byte stream there is no way to resynchronize past a bad frame.
func (mc *muxConn) readLoop() {
	var hdr [wire.HeaderSize]byte
	var payload []byte
	for {
		h, p, err := wire.ReadFrame(mc.br, &hdr, payload)
		payload = p
		if err != nil {
			mc.fail(err)
			return
		}
		mc.pmu.Lock()
		call := mc.pending[h.ReqID]
		delete(mc.pending, h.ReqID)
		mc.pmu.Unlock()
		if call == nil {
			continue
		}
		call.buf = append(call.buf[:0], p...)
		call.ch <- muxResp{hdr: h}
	}
}

// start registers call as the pending rendezvous for reqID, arms its
// deadline, and appends the frame in wbuf (its request id must be reqID)
// to the connection's pending bytes. The deadline starts before the frame
// is sent, so the calls a caller starts back to back all expire within one
// timeout of each other however long it takes to await them. With flush
// set the frame is sent now, in this caller's write or in the write in
// progress; without it the frame waits for the caller's Flush. A failure
// is kept in call.err for await; a failed write reaches every pending
// call through the connection's fail.
func (c *BinClient) start(mc *muxConn, call *muxCall, wbuf []byte, reqID uint32, flush bool) {
	call.init()
	call.mc, call.reqID, call.timeout, call.err = mc, reqID, c.timeout, nil
	mc.pmu.Lock()
	if mc.err != nil {
		call.err = mc.err
		mc.pmu.Unlock()
		return
	}
	mc.pending[reqID] = call
	mc.pmu.Unlock()

	call.timer.Reset(c.timeout)
	mc.send(wbuf, flush, true)
}

// send appends frame to the pending bytes. With flush set, a caller that
// finds a flush in progress leaves at once, since the flusher sends
// everything pending before it stops; a caller that finds none becomes
// the flusher. A flusher that may yield does so once first, so the
// callers woken behind it append their frames to its batch (grpc-go's
// loopy writer yields the same way before it flushes a small batch).
// Then it sends all pending bytes in one write, and repeats until nothing
// is pending. A failed write fails the connection, and every call pending
// on it.
func (mc *muxConn) send(frame []byte, flush, yield bool) {
	mc.wmu.Lock()
	mc.out = append(mc.out, frame...)
	if !flush || mc.flushing {
		mc.wmu.Unlock()
		return
	}
	mc.flushing = true
	if yield {
		mc.wmu.Unlock()
		runtime.Gosched()
		mc.wmu.Lock()
	}
	for len(mc.out) > 0 {
		batch := mc.out
		mc.out = mc.spare[:0]
		mc.wmu.Unlock()
		_, err := mc.c.Write(batch)
		if err != nil {
			mc.fail(fmt.Errorf("%w: write: %v", ErrConnLost, err))
		}
		mc.wmu.Lock()
		mc.spare = batch
		if err != nil {
			mc.out = mc.out[:0] // their calls failed with the connection
		}
	}
	mc.flushing = false
	mc.wmu.Unlock()
}

// Flush sends the frames pending on the live connection: the calls
// started without a flush leave only once it (or another caller's flush)
// runs. It does not yield, because a window's frames are already its
// batch. A failed write fails every call pending on the connection.
func (c *BinClient) Flush() {
	c.mu.Lock()
	mc := c.mc
	c.mu.Unlock()
	if mc != nil {
		mc.send(nil, true, false)
	}
}

// await waits for the answer to the call start made. On success it
// returns the response payload, which stays in call.buf until the call's
// next use.
func (call *muxCall) await(ctx context.Context, wantType byte) ([]byte, error) {
	if call.err != nil {
		return nil, call.err
	}
	var r muxResp
	select {
	case r = <-call.ch:
		stopTimer(call.timer)
	case <-call.timer.C:
		// An answer delivered before the deadline was noticed still counts:
		// a window awaits its calls in order, so a late-awaited call can
		// find both its answer and its expired timer.
		select {
		case r = <-call.ch:
		default:
			return nil, call.reap(fmt.Errorf("%w: no response after %v", ErrCallTimeout, call.timeout))
		}
	case <-ctx.Done():
		stopTimer(call.timer)
		return nil, call.reap(ctx.Err())
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case r.hdr.Type == wantType:
		return call.buf, nil
	case r.hdr.Type == wire.TError:
		var ef wire.ErrorFrame
		if err := wire.ParseError(call.buf, &ef); err != nil {
			return nil, err
		}
		return nil, binCodeErr(ef.Code, ef.BackoffMs, string(ef.Msg))
	default:
		return nil, fmt.Errorf("serve: response type %d, want %d", r.hdr.Type, wantType)
	}
}

// reap abandons a call that will get no usable response: its pending entry
// is removed so a late frame is dropped. If the reader (or fail) already
// claimed the call, a send to call.ch is in flight or delivered; it is
// drained so the channel is empty for the call's next use.
func (call *muxCall) reap(err error) error {
	mc := call.mc
	mc.pmu.Lock()
	_, pendingStill := mc.pending[call.reqID]
	delete(mc.pending, call.reqID)
	mc.pmu.Unlock()
	if !pendingStill {
		<-call.ch
	}
	return err
}

// stopTimer stops t and drains a concurrent fire, leaving it ready for the
// next Reset (the pre-Go-1.23 timer idiom; only the owning call goroutine
// ever receives from t.C outside the call select).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// binCodeErr maps a wire error code back onto the serve sentinel the error
// table gives it, so callers can errors.Is against the same values on both
// protocols. A backoff hint rides along as a BackoffError wrapper.
func binCodeErr(code uint16, backoffMs uint32, msg string) error {
	for i := range errTable {
		if errTable[i].wire != code {
			continue
		}
		err := fmt.Errorf("%w: %s", errTable[i].err, msg)
		if backoffMs > 0 {
			return &BackoffError{Err: err, RetryAfter: time.Duration(backoffMs) * time.Millisecond}
		}
		return err
	}
	return fmt.Errorf("serve: remote error %d: %s", code, msg)
}

// OpenSession creates a session over the binary protocol. The session
// carries a mirror of the server-side state, so its calls retry safely
// across connection losses and survive server restarts via resume.
func (c *BinClient) OpenSession(ctx context.Context, opts SessionOptions) (*RemoteSession, error) {
	return openSession(ctx, c, opts)
}

// attempt sends req as one frame through call scratch borrowed from the
// client's free list, and copies the answer's slices out before the
// scratch goes back, so a session owns no channel or timer of its own.
func (c *BinClient) attempt(ctx context.Context, _ *RemoteSession, req FrontReq) (FrontAns, error) {
	c.fmu.Lock()
	var b *BinCaller
	if n := len(c.free); n > 0 {
		b, c.free = c.free[n-1], c.free[:n-1]
	} else {
		b = new(BinCaller)
	}
	c.fmu.Unlock()
	ans, err := b.Call(ctx, c, &req)
	ans.Info.NumLevels = slices.Clone(ans.Info.NumLevels)
	ans.Levels = slices.Clone(ans.Levels)
	c.fmu.Lock()
	c.free = append(c.free, b)
	c.fmu.Unlock()
	return ans, err
}

func (c *BinClient) policy() *retryPolicy { return c.pol }
