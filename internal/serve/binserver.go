// Binary front: the one wire-v2 device loop both processes run, pmserve
// deciding in place and pmrouter forwarding to its shards. What differs
// between them is a FrontConn; everything else — the accept loop, the
// connection registry, draining, the decide window, error frames and the
// front's series — is written once, here.
//
// Each connection is one goroutine owning all of its scratch — read/write
// buffers, decoded request structs, the decide window — so a warmed
// connection serves decide frames with zero allocations: frame read reuses
// the payload scratch, decode reuses the request's backing arrays, and
// each answer is appended into a reused buffer. Frames are answered
// strictly in order (devices pipeline; an answer must not pass the frames
// before it). A decide frame opens a window: every complete decide frame
// already buffered behind it joins (never blocking mid-window), each is
// started on the connection's FrontConn, the FrontConn flushes once, and
// the answers, finished in frame order, leave in one vectored write.
// Other answers are flushed only when no further request is buffered.

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

// FrontConn is one device connection's access to the sessions a front
// serves. A Server's decides in place; a router's forwards each call to
// the session's shard. It is used by one goroutine at a time.
//
// A decide window calls StartDecide for each of its frames, numbered from
// 0, then Flush once, then FinishDecide for every frame whose start
// succeeded, in order. A StartDecide error is that frame's answer. The
// levels FinishDecide returns, like the NumLevels of a create or resume,
// are the conn's scratch, valid until its next call of the same kind.
type FrontConn interface {
	Create(ctx context.Context, opts SessionOptions) (BinSessionInfo, error)
	Resume(ctx context.Context, st ResumeState) (BinSessionInfo, error)
	Reward(ctx context.Context, handle uint64, epoch uint32, seq uint64, r float64) (wire.Stats, error)
	Close(ctx context.Context, handle uint64) (wire.Stats, error)

	StartDecide(i int, handle uint64, epoch uint32, seq uint64, obs []Observation) error
	Flush()
	FinishDecide(ctx context.Context, i int) ([]int, error)
}

// maxWindowFrames bounds the decide frames one window gathers: enough to
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

// Windows reports the decide windows served.
func (f *BinFront) Windows() uint64 { return f.windows.Load() }

// Serve accepts connections on ln, serving each over a FrontConn from
// open, until the listener fails or the front drains or closes. It blocks;
// run it in its own goroutine. A front already closed refuses ln with
// ErrServerClosed.
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
	for {
		conn, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			stopped := f.down || f.draining
			f.mu.Unlock()
			if stopped || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
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
	bw      *bufio.Writer
	hdr     [wire.HeaderSize]byte
	payload []byte // frame payload scratch, regrown by ReadFrame
	wbuf    []byte // answer scratch for frames served one at a time
	dreq    wire.DecideReq
	creq    wire.CreateReq
	rreq    wire.RewardReq
	clreq   wire.CloseReq
	rsreq   wire.ResumeReq
	win     binWindow
}

// binSlot is one decide frame of a window: its answer and its timing.
type binSlot struct {
	reqID   uint32
	wbuf    []byte // answer frame, reused
	t0      time.Time
	started bool // StartDecide succeeded: FinishDecide gives the answer
	ok      bool // answered with TDecideOK
}

// binWindow is a connection's decide-window working set: one slot per
// gathered frame, so the answers leave in a single writev-style flush.
type binWindow struct {
	slots      []binSlot // index-aligned with the window's frames, reused
	n          int       // frames in the window
	obsTotal   int       // observations gathered, for the maxObs budget
	bufs       net.Buffers
	wv         net.Buffers // what WriteTo consumes, so bufs keeps its capacity
	closeAfter bool        // a frame poisoned the stream: answer, then hang up
}

// next opens the window's next frame slot.
func (w *binWindow) next(reqID uint32) *binSlot {
	if w.n == len(w.slots) {
		w.slots = append(w.slots, binSlot{})
	}
	sl := &w.slots[w.n]
	w.n++
	sl.reqID, sl.t0, sl.started, sl.ok = reqID, time.Now(), false, false
	return sl
}

// serveConn serves one connection until the peer hangs up, a frame
// poisons the stream, or a drain nudge expires, then closes it.
func (f *BinFront) serveConn(conn net.Conn, fc FrontConn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: decide frames are tiny
	}
	st := &binConn{
		conn: conn,
		fc:   fc,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// A read-deadline timeout during drain is the drain nudge, not
			// a protocol failure: everything answered has been flushed,
			// and a partially received frame was never accepted. Close
			// cleanly so in-flight answers land.
			if f.isDraining() && isTimeout(err) {
				st.bw.Flush()
				gracefulClose(conn, st.br)
				return
			}
			// A clean EOF between frames is the client hanging up. Anything
			// else — truncation, CRC, version, oversized prefix — poisons
			// the stream's framing: answer with a best-effort error frame
			// and drop the connection rather than misparse what follows.
			if !errors.Is(err, io.EOF) {
				st.wbuf, _ = f.appendError(st.wbuf, h.ReqID, err)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				gracefulClose(conn, st.br)
			}
			return
		}
		var keep bool
		if h.Type == wire.TDecide {
			keep = f.window(st, h)
		} else {
			keep = f.serveFrame(st, h)
		}
		// Flush once the buffered input is exhausted: under pipelining many
		// answers ride one syscall, while a lone request is answered
		// immediately.
		if st.br.Buffered() == 0 || !keep {
			if err := st.bw.Flush(); err != nil {
				return
			}
		}
		if !keep {
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

// serveFrame serves one non-decide request frame, appending exactly one
// answer to st.bw. It reports whether the connection stays open.
func (f *BinFront) serveFrame(st *binConn, h wire.Header) bool {
	f.frames.Add(1)
	keep := true
	if err := f.answer(st, h); err != nil {
		st.wbuf, keep = f.appendError(st.wbuf, h.ReqID, err)
	}
	st.bw.Write(st.wbuf)
	return keep
}

// answer decodes the non-decide frame in st.payload, makes its call and
// encodes the answer into st.wbuf, or returns the error to answer with.
// No context bounds the call: a router's forwards are bounded by their
// shard clients' call timeout.
func (f *BinFront) answer(st *binConn, h wire.Header) error {
	ctx := context.Background()
	switch h.Type {
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return err
		}
		opts, err := optionsFromWire(st.creq)
		if err != nil {
			return err
		}
		info, err := st.fc.Create(ctx, opts)
		if err != nil {
			return err
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TCreateOK, h.ReqID)
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return err
		}
		rs, err := resumeFromWire(&st.rsreq)
		if err != nil {
			return err
		}
		info, err := st.fc.Resume(ctx, rs)
		if err != nil {
			return err
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TResumeOK, h.ReqID)
	case wire.TReward:
		if err := wire.ParseRewardReq(st.payload, &st.rreq); err != nil {
			return err
		}
		stats, err := st.fc.Reward(ctx, st.rreq.Handle, st.rreq.Epoch, st.rreq.Seq, st.rreq.Reward)
		if err != nil {
			return err
		}
		st.wbuf = wire.FinishFrame(wire.AppendStats(wire.BeginFrame(st.wbuf), stats), wire.TRewardOK, h.ReqID)
	case wire.TClose:
		if err := wire.ParseCloseReq(st.payload, &st.clreq); err != nil {
			return err
		}
		stats, err := st.fc.Close(ctx, st.clreq.Handle)
		if err != nil {
			return err
		}
		st.wbuf = wire.FinishFrame(wire.AppendStats(wire.BeginFrame(st.wbuf), stats), wire.TCloseOK, h.ReqID)
	default:
		// An answer type on the request stream is a protocol violation;
		// answer and hang up.
		return wire.ErrBadType
	}
	return nil
}

// window serves the decide frame in hand plus every complete decide frame
// already buffered behind it whose observations fit the budget, and writes
// their answers in frame order in one vectored write. It reports whether
// the connection stays open.
func (f *BinFront) window(st *binConn, h wire.Header) bool {
	w := &st.win
	w.n, w.obsTotal, w.closeAfter = 0, 0, false
	f.windows.Add(1)
	f.frames.Add(1)
	f.startDecide(st, h)
	for !w.closeAfter && w.n < maxWindowFrames {
		if n, ok := wire.PeekDecide(st.br); !ok || w.obsTotal+n > f.maxObs {
			break
		}
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		f.frames.Add(1)
		if err != nil {
			// The peek said a full frame was buffered, so this is
			// corruption, not truncation: answer in order and poison the
			// stream.
			f.failSlot(w, w.next(gh.ReqID), err)
			w.closeAfter = true
			break
		}
		f.startDecide(st, gh)
	}
	st.fc.Flush()
	for i := range w.slots[:w.n] {
		sl := &w.slots[i]
		if !sl.started {
			continue
		}
		levels, err := st.fc.FinishDecide(context.Background(), i)
		if err != nil {
			f.failSlot(w, sl, err)
			continue
		}
		sl.wbuf = wire.FinishFrame(wire.AppendDecideOK(wire.BeginFrame(sl.wbuf), levels), wire.TDecideOK, sl.reqID)
		sl.ok = true
	}

	// Anything older already buffered in bw goes first so the stream stays
	// ordered, then the window's answers in one vectored write.
	if err := st.bw.Flush(); err != nil {
		return false
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
		if sl := &w.slots[i]; sl.ok {
			f.histWrite.Observe(span)
			f.histBin.Observe(now.Sub(sl.t0).Nanoseconds())
		}
	}
	return !w.closeAfter
}

// startDecide decodes the decide frame in st.payload into the window's
// next slot and starts it, or answers it in the slot. The FrontConn has
// read the observations before the next gathered frame overwrites
// st.dreq.
func (f *BinFront) startDecide(st *binConn, h wire.Header) {
	w := &st.win
	i := w.n
	sl := w.next(h.ReqID)
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		f.failSlot(w, sl, err)
		return
	}
	w.obsTotal += len(st.dreq.Obs)
	f.histDecode.Observe(time.Since(sl.t0).Nanoseconds())
	if err := st.fc.StartDecide(i, st.dreq.Handle, st.dreq.Epoch, st.dreq.Seq, st.dreq.Obs); err != nil {
		f.failSlot(w, sl, err)
		return
	}
	sl.started = true
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
