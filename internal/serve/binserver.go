// Binary front: the one wire-v2 device loop both processes run, pmserve
// deciding in place and pmrouter forwarding to its shards. What differs
// between them is a FrontConn; everything else — the accept loop, the
// connection registry, draining, the window, error frames and the front's
// series — is written once, here.
//
// Each connection is one goroutine owning all of its scratch — read
// buffer, decoded request structs, the window — so a warmed connection
// serves decide frames with zero allocations: frame read reuses the
// payload scratch, decode reuses the request's backing arrays, and each
// answer is appended into a reused buffer. Frames are answered strictly in
// order (devices pipeline; an answer must not pass the frames before it).
// Every request frame opens or joins a window: every complete frame
// already buffered behind the first joins (never blocking mid-window),
// each is started on the connection's FrontConn, the FrontConn flushes
// once, and the answers, finished in frame order, leave in one vectored
// write.

package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/wire"
)

// FrontReq is one request a front hands its FrontConn. Type is the wire
// request type (wire.TCreate, TResume, TDecide, TReward or TClose), and
// only the fields that type uses are meaningful.
type FrontReq struct {
	Type   byte
	Handle uint64         // decide, reward, close
	Epoch  uint32         // decide, reward, close
	Seq    uint64         // decide, reward
	Obs    []Observation  // decide
	Reward float64        // reward
	Opts   SessionOptions // create
	Resume ResumeState    // resume
}

// FrontAns is a request's answer: Info for a create or resume, Levels for
// a decide, Stats for a reward or close.
type FrontAns struct {
	Info   BinSessionInfo
	Levels []int
	Stats  wire.Stats
}

// okType is the type of the answer that serves a request of type typ:
// every request type's OK answer is numbered right after it.
func okType(typ byte) byte { return typ + 1 }

// FrontConn is one device connection's access to the sessions a front
// serves. A Server's serves each request in place; a router's forwards it
// to the session's shard. It is used by one goroutine at a time.
//
// A window calls Start for each of its requests, numbered from 0, then
// Flush once, then Finish for every request whose start succeeded, in
// order. A Start error is that request's answer. A request's slices are
// valid only during its Start; an answer's slices are the conn's scratch,
// valid until its next window.
type FrontConn interface {
	Start(i int, req *FrontReq) error
	Flush()
	Finish(ctx context.Context, i int) (FrontAns, error)
}

// maxWindowFrames bounds the frames one window gathers: enough to
// answer a pipelining client in one write, small enough that one slow
// frame never delays a connection's answers unboundedly.
const maxWindowFrames = 64

// stageHelp is the help text of every <prefix>_decide_stage_ns series.
const stageHelp = "per-stage decide-path latency in nanoseconds"

// BinFront serves binary-protocol device connections. Create one with
// NewBinFront, hand it listeners with Serve, and Close it to tear every
// listener and connection down.
type BinFront struct {
	maxObs int // observations one window may gather

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // one per live connection goroutine
	down     bool
	draining bool

	connsTotal *obs.Counter
	frames     *obs.Counter
	errs       *obs.Counter
	windows    *obs.Counter
	histBin    *obs.Histogram // a decide frame: read → answer written
	histDecode *obs.Histogram // its payload decode
	histWrite  *obs.Histogram // the window's vectored write
}

// NewBinFront builds a front whose windows gather at most maxObs
// observations (a single larger frame is a window of its own), with its
// series registered in reg under prefix: <prefix>_bin_connections,
// _bin_connections_total, _bin_frames_total, _bin_errors_total,
// _decide_windows_total and _decide_stage_ns{stage=bin|bin_decode|bin_write}.
func NewBinFront(reg *obs.Registry, prefix string, maxObs int) *BinFront {
	stage := func(name string) *obs.Histogram {
		return reg.NewHistogram(prefix+"_decide_stage_ns", stageHelp, obs.Label{Key: "stage", Value: name})
	}
	f := &BinFront{
		maxObs:     maxObs,
		lns:        make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
		connsTotal: reg.NewCounter(prefix+"_bin_connections_total", "binary-protocol connections accepted"),
		frames:     reg.NewCounter(prefix+"_bin_frames_total", "binary-protocol request frames served"),
		errs:       reg.NewCounter(prefix+"_bin_errors_total", "binary-protocol requests answered with an error frame"),
		windows:    reg.NewCounter(prefix+"_decide_windows_total", "decide windows the binary front served"),
		histBin:    stage("bin"),
		histDecode: stage("bin_decode"),
		histWrite:  stage("bin_write"),
	}
	reg.NewGaugeFunc(prefix+"_bin_connections", "live binary-protocol connections", func() float64 {
		return float64(f.Live())
	})
	return f
}

// Live reports the connections being served.
func (f *BinFront) Live() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.conns)
}

// Serve accepts connections on ln, serving each over a FrontConn from
// open, until the listener fails or the front drains or closes. A
// temporary accept error (a full descriptor table, say) is retried after
// a backoff of 5 ms doubling to 1 s, as net/http's Server.Serve retries
// it. It blocks; run it in its own goroutine. A front already closed
// refuses ln with ErrServerClosed.
func (f *BinFront) Serve(ln net.Listener, open func() FrontConn) error {
	f.mu.Lock()
	if f.down {
		f.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	f.lns[ln] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.lns, ln)
		f.mu.Unlock()
		ln.Close()
	}()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			stopped := f.down || f.draining
			f.mu.Unlock()
			if stopped || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if !temporary(err) {
				return err
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !f.track(conn) {
			conn.Close()
			return nil
		}
		f.connsTotal.Add(1)
		go func() {
			defer f.untrack(conn)
			f.serveConn(conn, open())
		}()
	}
}

// temporary reports whether an accept error is one net/http's
// Server.Serve retries: a net.Error whose Temporary() is true.
func temporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// track registers a live connection for teardown; it reports false once
// the front drains or closes (its sweep may already have run).
func (f *BinFront) track(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down || f.draining {
		return false
	}
	f.conns[c] = struct{}{}
	f.wg.Add(1)
	return true
}

func (f *BinFront) untrack(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	f.wg.Done()
}

// Drain stops accepting, nudges every live connection with a read
// deadline grace from now — a fully received request is still served and
// its answer flushed, while a partially received one was never accepted
// and its client retries elsewhere — and waits for the connections to
// wind down, or for ctx.
func (f *BinFront) Drain(ctx context.Context, grace time.Duration) error {
	f.mu.Lock()
	f.draining = true
	for ln := range f.lns {
		ln.Close()
	}
	deadline := time.Now().Add(grace)
	for c := range f.conns {
		c.SetReadDeadline(deadline)
	}
	f.mu.Unlock()
	for f.Live() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close closes every listener and connection and waits for the
// connection goroutines to return.
func (f *BinFront) Close() {
	f.mu.Lock()
	f.down = true
	for ln := range f.lns {
		ln.Close()
	}
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// binConn is one connection's reusable working set.
type binConn struct {
	conn    net.Conn
	fc      FrontConn
	br      *bufio.Reader
	hdr     [wire.HeaderSize]byte
	payload []byte         // frame payload scratch, regrown by ReadFrame
	req     FrontReq       // the request being started
	dreq    wire.DecideReq // decode scratch whose slices req aliases
	rsreq   wire.ResumeReq
	win     binWindow
}

// binSlot is one frame of a window: its answer and its timing.
type binSlot struct {
	typ     byte
	reqID   uint32
	wbuf    []byte // answer frame, reused
	t0      time.Time
	started bool // Start succeeded: Finish gives the answer
	ok      bool // answered with the request's OK type
}

// binWindow is a connection's window working set: one slot per gathered
// frame, so the answers leave in a single writev-style flush.
type binWindow struct {
	slots      []binSlot // index-aligned with the window's frames, reused
	n          int       // frames in the window
	obsTotal   int       // decide observations gathered, for the maxObs budget
	decides    bool      // a decide frame joined
	bufs       net.Buffers
	wv         net.Buffers // what WriteTo consumes, so bufs keeps its capacity
	closeAfter bool        // a frame poisoned the stream: answer, then hang up
}

// next opens the window's next frame slot.
func (w *binWindow) next(h wire.Header) *binSlot {
	if w.n == len(w.slots) {
		w.slots = append(w.slots, binSlot{})
	}
	sl := &w.slots[w.n]
	w.n++
	sl.typ, sl.reqID, sl.t0, sl.started, sl.ok = h.Type, h.ReqID, time.Now(), false, false
	w.decides = w.decides || h.Type == wire.TDecide
	return sl
}

// serveConn serves one connection until the peer hangs up, a frame
// poisons the stream, or a drain nudge expires, then closes it.
func (f *BinFront) serveConn(conn net.Conn, fc FrontConn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: decide frames are tiny
	}
	st := &binConn{conn: conn, fc: fc, br: bufio.NewReaderSize(conn, 64<<10)}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// A read-deadline timeout during drain is the drain nudge, not
			// a protocol failure: every window's answers have been
			// written, and a partially received frame was never accepted.
			// Close cleanly so in-flight answers land.
			if f.isDraining() && isTimeout(err) {
				gracefulClose(conn, st.br)
				return
			}
			// A clean EOF between frames is the client hanging up. Anything
			// else — truncation, CRC, version, oversized prefix — poisons
			// the stream's framing: answer with a best-effort error frame
			// and drop the connection rather than misparse what follows.
			if !errors.Is(err, io.EOF) {
				frame, _ := f.appendError(nil, h.ReqID, err)
				conn.Write(frame)
				gracefulClose(conn, st.br)
			}
			return
		}
		if !f.window(st, h) {
			gracefulClose(conn, st.br)
			return
		}
	}
}

func (f *BinFront) isDraining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// gracefulClose half-closes the write side and briefly drains unread input
// so the just-written answers reach the peer as data + EOF instead of
// being torn down by a reset (closing a socket with unread bytes sends
// RST, which can discard in-flight answers).
func gracefulClose(conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
}

// window serves the frame in hand plus every complete frame already
// buffered behind it, up to maxWindowFrames and while the decides'
// observations fit the budget, and writes their answers in frame order in
// one vectored write. No context bounds a Finish: a router's forwards are
// bounded by their shard clients' call timeout. It reports whether the
// connection stays open.
func (f *BinFront) window(st *binConn, h wire.Header) bool {
	w := &st.win
	w.n, w.obsTotal, w.decides, w.closeAfter = 0, 0, false, false
	f.start(st, h)
	for !w.closeAfter && w.n < maxWindowFrames {
		if _, n, ok := wire.PeekRequest(st.br); !ok || w.obsTotal+n > f.maxObs {
			break
		}
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// The peek said a full frame was buffered, so this is
			// corruption, not truncation: answer in order and poison the
			// stream.
			f.frames.Add(1)
			f.failSlot(w, w.next(gh), err)
			w.closeAfter = true
			break
		}
		f.start(st, gh)
	}
	if w.decides {
		f.windows.Add(1)
	}
	st.fc.Flush()
	for i := range w.slots[:w.n] {
		sl := &w.slots[i]
		if !sl.started {
			continue
		}
		ans, err := st.fc.Finish(context.Background(), i)
		if err != nil {
			f.failSlot(w, sl, err)
			continue
		}
		sl.wbuf = appendAnswer(sl.wbuf, sl, &ans)
		sl.ok = true
	}

	w.bufs = w.bufs[:0]
	for i := range w.slots[:w.n] {
		w.bufs = append(w.bufs, w.slots[i].wbuf)
	}
	wstart := time.Now()
	w.wv = w.bufs
	if _, err := w.wv.WriteTo(st.conn); err != nil {
		return false
	}
	now := time.Now()
	span := now.Sub(wstart).Nanoseconds()
	for i := range w.slots[:w.n] {
		if sl := &w.slots[i]; sl.ok && sl.typ == wire.TDecide {
			f.histWrite.Observe(span)
			f.histBin.Observe(now.Sub(sl.t0).Nanoseconds())
		}
	}
	return !w.closeAfter
}

// start decodes the frame in st.payload into st.req and starts it in the
// window's next slot, or answers it there. The FrontConn has read the
// request before the next gathered frame overwrites st.req.
func (f *BinFront) start(st *binConn, h wire.Header) {
	w := &st.win
	i := w.n
	sl := w.next(h)
	f.frames.Add(1)
	err := st.decode(h.Type)
	if err == nil && h.Type == wire.TDecide {
		w.obsTotal += len(st.req.Obs)
		f.histDecode.Observe(time.Since(sl.t0).Nanoseconds())
	}
	if err == nil {
		err = st.fc.Start(i, &st.req)
	}
	if err != nil {
		f.failSlot(w, sl, err)
		return
	}
	sl.started = true
}

// decode parses the request frame of type typ in st.payload into st.req.
// An answer type on the request stream is a protocol violation, answered
// with ErrBadType.
func (st *binConn) decode(typ byte) error {
	req := &st.req
	req.Type = typ
	switch typ {
	case wire.TCreate:
		var cr wire.CreateReq
		if err := wire.ParseCreateReq(st.payload, &cr); err != nil {
			return err
		}
		var err error
		req.Opts, err = optionsFromWire(cr)
		return err
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return err
		}
		var err error
		req.Resume, err = resumeFromWire(&st.rsreq)
		return err
	case wire.TDecide:
		if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
			return err
		}
		req.Handle, req.Epoch, req.Seq, req.Obs = st.dreq.Handle, st.dreq.Epoch, st.dreq.Seq, st.dreq.Obs
	case wire.TReward:
		var rr wire.RewardReq
		if err := wire.ParseRewardReq(st.payload, &rr); err != nil {
			return err
		}
		req.Handle, req.Epoch, req.Seq, req.Reward = rr.Handle, rr.Epoch, rr.Seq, rr.Reward
	case wire.TClose:
		var cr wire.CloseReq
		if err := wire.ParseCloseReq(st.payload, &cr); err != nil {
			return err
		}
		req.Handle, req.Epoch = cr.Handle, cr.Epoch
	default:
		return wire.ErrBadType
	}
	return nil
}

// appendAnswer appends to dst the OK frame answering slot sl with ans.
func appendAnswer(dst []byte, sl *binSlot, ans *FrontAns) []byte {
	p := wire.BeginFrame(dst)
	switch sl.typ {
	case wire.TCreate, wire.TResume:
		p = wire.AppendCreateOK(p, ans.Info.Handle, ans.Info.Epoch, ans.Info.NumLevels)
	case wire.TDecide:
		p = wire.AppendDecideOK(p, ans.Levels)
	default: // TReward, TClose
		p = wire.AppendStats(p, ans.Stats)
	}
	return wire.FinishFrame(p, okType(sl.typ), sl.reqID)
}

// failSlot answers slot sl with err; a stream-poisoning error closes the
// connection after the window's write.
func (f *BinFront) failSlot(w *binWindow, sl *binSlot, err error) {
	var keep bool
	sl.wbuf, keep = f.appendError(sl.wbuf, sl.reqID, err)
	if !keep {
		w.closeAfter = true
	}
}

// appendError appends to dst the TError frame answering reqID with err:
// the error table's wire code (CodeBadRequest for an error the table does
// not name), the retry hint err carries, and the message. keep reports
// whether the connection survives: a session-level failure keeps it open,
// while a wire decode error (a malformed but well-framed request) means
// the peer's encoder cannot be trusted, so the connection closes.
func (f *BinFront) appendError(dst []byte, reqID uint32, err error) (frame []byte, keep bool) {
	f.errs.Add(1)
	code := wire.CodeBadRequest
	if c := classify(err); c != nil {
		code = c.wire
	}
	frame = wire.FinishFrame(
		wire.AppendError(wire.BeginFrame(dst), code, uint32(RetryAfter(err)/time.Millisecond), err.Error()),
		wire.TError, reqID)
	keep = !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrBadPayload) && !errors.Is(err, wire.ErrBadType)
	return frame, keep
}
