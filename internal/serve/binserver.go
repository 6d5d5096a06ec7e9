// Binary-protocol server: persistent multiplexed TCP connections speaking
// internal/wire frames against the same sessions the HTTP handlers serve.
//
// Each connection is one goroutine owning all of its scratch — read/write
// buffers, decoded request structs, the decide window — so a warmed
// connection serves decide frames with zero allocations: frame read reuses
// the payload scratch, decode reuses the request's backing arrays (whose
// observations the sessions read directly), the decide transaction works
// in session-owned scratch, and each response is appended into a reused
// buffer. Responses echo the request id, so a client may pipeline requests
// for many sessions over one connection; decide frames pipelined together
// share one backend batch and one vectored write, and other responses are
// flushed only when no further request is already buffered.

package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"rlpm/internal/wire"
)

// ServeBin accepts binary-protocol connections on ln until the listener
// fails or the server closes. It blocks; run it in its own goroutine. The
// listener is closed (and every live connection torn down) by Server.Close.
func (s *Server) ServeBin(ln net.Listener) error {
	s.binMu.Lock()
	s.binLns[ln] = struct{}{}
	s.binMu.Unlock()
	defer func() {
		s.binMu.Lock()
		delete(s.binLns, ln)
		s.binMu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.trackBinConn(conn) {
			conn.Close()
			return nil
		}
		s.binConnsTotal.Add(1)
		go s.serveBinConn(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// trackBinConn registers a live connection for teardown at Close; it
// reports false when the server already closed (the connection must not be
// served — Close's sweep may already have run).
func (s *Server) trackBinConn(c net.Conn) bool {
	if s.isClosed() {
		return false
	}
	s.binMu.Lock()
	s.binConns[c] = struct{}{}
	s.binMu.Unlock()
	if s.isClosed() { // raced Close's sweep: tear down ourselves
		s.binMu.Lock()
		delete(s.binConns, c)
		s.binMu.Unlock()
		return false
	}
	return true
}

// binConnState is one connection's reusable working set.
type binConnState struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [wire.HeaderSize]byte
	payload []byte // frame payload scratch, regrown by ReadFrame
	wbuf    []byte // response frame scratch
	dreq    wire.DecideReq
	creq    wire.CreateReq
	rreq    wire.RewardReq
	clreq   wire.CloseReq
	rsreq   wire.ResumeReq
	win     binWindow // decide-window working set
}

func (s *Server) serveBinConn(conn net.Conn) {
	defer func() {
		s.binMu.Lock()
		delete(s.binConns, conn)
		s.binMu.Unlock()
		conn.Close()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: decide frames are tiny
	}
	st := &binConnState{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// A read-deadline timeout during drain is the drain nudge, not
			// a protocol failure: everything already answered has been
			// flushed (the per-frame flush below runs before the next
			// read), and a partially received frame was never accepted —
			// its client retries against the next incarnation. Close
			// cleanly so in-flight responses land.
			if s.isDraining() && isTimeout(err) {
				st.bw.Flush()
				GracefulClose(conn, st.br)
				return
			}
			// A clean EOF between frames is the client hanging up. Anything
			// else — truncation, CRC, version, oversized prefix — poisons
			// the stream's framing: answer with a best-effort error frame
			// and drop the connection rather than misparse what follows.
			if !errors.Is(err, io.EOF) {
				s.binErrors.Add(1)
				st.wbuf, _ = AppendErrorFrame(st.wbuf, h.ReqID, err, 0)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				GracefulClose(conn, st.br)
			}
			return
		}
		var keep bool
		if h.Type == wire.TDecide {
			keep = s.serveBinDecideWindow(st, h)
		} else {
			keep = s.handleBinFrame(st, h)
		}
		// Flush once the buffered input is exhausted: under pipelining many
		// responses ride one syscall, while a lone request is answered
		// immediately.
		if st.br.Buffered() == 0 || !keep {
			if err := st.bw.Flush(); err != nil {
				return
			}
		}
		if !keep {
			GracefulClose(conn, st.br)
			return
		}
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// GracefulClose half-closes the write side and briefly drains unread input
// so the just-written error frame reaches the peer as data + EOF instead
// of being torn down by a reset (closing a socket with unread bytes sends
// RST, which can discard in-flight responses).
func GracefulClose(conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
}

// handleBinFrame serves one non-decide request frame, appending exactly
// one response frame to st.bw. It reports whether the connection should
// stay open.
func (s *Server) handleBinFrame(st *binConnState, h wire.Header) bool {
	s.binFrames.Add(1)
	switch h.Type {
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.CreateSession(OptionsFromWire(st.creq))
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), sess.Handle(), s.cfg.Epoch, s.model.levels),
			wire.TCreateOK, h.ReqID)
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.ResumeSession(ResumeFromWire(&st.rsreq))
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), sess.Handle(), s.cfg.Epoch, s.model.levels),
			wire.TResumeOK, h.ReqID)
	case wire.TReward:
		if err := wire.ParseRewardReq(st.payload, &st.rreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.SessionByHandleEpoch(st.rreq.Handle, st.rreq.Epoch)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		stats, err := sess.RewardSeq(st.rreq.Seq, st.rreq.Reward)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), statsToWire(stats)),
			wire.TRewardOK, h.ReqID)
	case wire.TClose:
		if err := wire.ParseCloseReq(st.payload, &st.clreq); err != nil {
			return s.binError(st, h.ReqID, err)
		}
		stats, err := s.CloseSessionByHandle(st.clreq.Handle)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), statsToWire(stats)),
			wire.TCloseOK, h.ReqID)
	default:
		// A response type on the request stream is a protocol violation;
		// answer and hang up.
		s.binError(st, h.ReqID, wire.ErrBadType)
		return false
	}
	st.bw.Write(st.wbuf)
	return true
}

// maxWindowFrames bounds the decide frames one window gathers: enough to
// fill a healthy batch under pipelining, small enough that one slow frame
// never delays a connection's responses unboundedly.
const maxWindowFrames = 64

// binTxn is one decide frame of a connection window: its identity, its
// slice of the combined lookup batch, and how it resolved.
type binTxn struct {
	reqID   uint32
	t0      time.Time
	sess    *Session // non-nil while the decide transaction is open
	levels  []int    // per-frame decision output (window-owned scratch)
	lookOff int      // this frame's offset into the combined lookups
	lookLen int
	ok      bool // answered with TDecideOK (fresh or replayed)
}

// binWindow is a connection's reusable decide-window working set: the
// open transactions, the combined exploit-lookup batch they share, and
// one response buffer per frame so the answers leave in a single
// writev-style net.Buffers flush.
type binWindow struct {
	txns       []binTxn
	wbufs      [][]byte // response frame per txn, index-aligned, reused
	frameLvls  [][]int  // levels scratch per txn, index-aligned, reused
	lookups    []Lookup // combined exploit lookups of all open txns
	out        []int    // combined batch results
	breq       batchReq // the window's batcher submission
	bufs       net.Buffers
	wv         net.Buffers // what WriteTo consumes, so bufs keeps its capacity
	obsTotal   int         // observations admitted, for the batch budget
	closeAfter bool        // a frame poisoned the stream: answer, then hang up
}

func (w *binWindow) reset() {
	w.txns = w.txns[:0]
	w.lookups = w.lookups[:0]
	w.obsTotal = 0
	w.closeAfter = false
}

// slot returns the next txn index, growing the index-aligned scratch.
func (w *binWindow) slot() int {
	i := len(w.txns)
	for len(w.wbufs) <= i {
		w.wbufs = append(w.wbufs, nil)
	}
	for len(w.frameLvls) <= i {
		w.frameLvls = append(w.frameLvls, nil)
	}
	return i
}

// txnState is beginBinTxn's outcome for one decide frame.
type txnState int

const (
	txnOpen     txnState = iota // transaction open, session lock held
	txnAnswered                 // response already encoded (replay or error)
	txnHeld                     // session lock unavailable: frame held back
)

// serveBinDecideWindow serves the decide frame in hand plus every complete
// decide frame already buffered behind it (the pipelining window): all
// their transactions open under their session locks, their exploit lookups
// resolve through ONE shared batch dispatch — cross-session coalescing
// that serving frame by frame cannot reach, because each frame's batch.Do
// blocks the connection goroutine before the next frame is even parsed —
// and the responses leave in one vectored net.Buffers flush. A frame with
// nothing buffered behind it is a window of one. It reports whether the
// connection stays open.
func (s *Server) serveBinDecideWindow(st *binConnState, h wire.Header) bool {
	s.binFrames.Add(1)
	w := &st.win
	for {
		w.reset()
		s.beginBinTxn(st, h, true) // first frame locks blockingly: never held

		// Gather phase: consume further decide frames only when the
		// complete frame is already buffered (never block mid-window) and
		// its count fits the batch budget. A frame whose session lock is
		// contended is held back — the stream stays ordered, so it must
		// wait for this window's responses anyway — and opens the next
		// window, its payload still in st.payload.
		held := false
		for !w.closeAfter && len(w.txns) < maxWindowFrames {
			if n, ok := wire.PeekDecide(st.br); !ok || w.obsTotal+n > s.cfg.MaxBatch {
				break
			}
			gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
			st.payload = payload
			s.binFrames.Add(1)
			if err != nil {
				// The peek said a full frame was buffered, so this is
				// corruption, not truncation: answer in order and poison
				// the stream.
				s.windowError(w, w.slot(), gh.ReqID, err)
				w.txns = append(w.txns, binTxn{reqID: gh.ReqID})
				w.closeAfter = true
				break
			}
			if s.beginBinTxn(st, gh, false) == txnHeld {
				h, held = gh, true
				break
			}
		}
		if !s.finishBinWindow(st) {
			return false
		}
		if !held {
			return true
		}
	}
}

// finishBinWindow resolves every open transaction of the window through
// one shared batch, finishes (or, if the batch failed, aborts) them, and
// writes every response in frame order. It reports whether the connection
// stays open.
func (s *Server) finishBinWindow(st *binConnState) bool {
	w := &st.win
	var batchErr error
	if len(w.lookups) > 0 {
		if cap(w.out) < len(w.lookups) {
			w.out = make([]int, len(w.lookups))
		}
		batchErr = s.batch.Do(&w.breq, w.lookups, w.out[:len(w.lookups)])
	}
	for i := range w.txns {
		tx := &w.txns[i]
		if tx.sess == nil {
			continue // answered at begin (replay or error)
		}
		if batchErr != nil {
			tx.sess.decideAbortLocked()
			tx.sess.mu.Unlock()
			s.windowError(w, i, tx.reqID, batchErr)
			continue
		}
		for j := 0; j < tx.lookLen; j++ {
			tx.levels[tx.sess.lookupsIdx[j]] = w.out[tx.lookOff+j]
		}
		tx.sess.decideFinishLocked(tx.levels)
		tx.sess.mu.Unlock()
		w.wbufs[i] = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(w.wbufs[i]), tx.levels),
			wire.TDecideOK, tx.reqID)
		tx.ok = true
	}

	// Vectored flush: every response of the window in one writev-style
	// call, in frame order. Anything older already buffered in bw goes
	// first so the stream stays ordered.
	if err := st.bw.Flush(); err != nil {
		return false
	}
	w.bufs = w.bufs[:0]
	for i := range w.txns {
		w.bufs = append(w.bufs, w.wbufs[i])
	}
	wstart := time.Now()
	w.wv = w.bufs
	if _, err := w.wv.WriteTo(st.conn); err != nil {
		return false
	}
	now := time.Now()
	span := now.Sub(wstart).Nanoseconds()
	for i := range w.txns {
		if tx := &w.txns[i]; tx.ok {
			s.histBinWrite.Observe(span)
			s.histBin.Observe(now.Sub(tx.t0).Nanoseconds())
		}
	}
	return !w.closeAfter
}

// beginBinTxn decodes the decide frame in st.payload and opens its
// transaction: parse, session lookup, validation, then decideBeginLocked
// under the session lock (blocking for the window's first frame, try-lock
// after — a second frame for a session already in the window must not
// deadlock the gather). Replays and failures are answered immediately
// into the frame's window buffer; an open transaction contributes its
// exploit lookups to the combined batch and keeps the session lock until
// the window scatters and finishes it. The observations are read straight
// from st.dreq, which the next gathered frame overwrites only after
// decideBeginLocked has consumed them.
func (s *Server) beginBinTxn(st *binConnState, h wire.Header, first bool) txnState {
	w := &st.win
	slot := w.slot()
	tx := binTxn{reqID: h.ReqID, t0: time.Now()}
	fail := func(err error) txnState {
		s.windowError(w, slot, h.ReqID, err)
		w.txns = append(w.txns, tx)
		return txnAnswered
	}
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		return fail(err)
	}
	obs := st.dreq.Obs
	sess, err := s.SessionByHandleEpoch(st.dreq.Handle, st.dreq.Epoch)
	if err != nil {
		return fail(err)
	}
	n := len(obs)
	if cap(w.frameLvls[slot]) < n {
		w.frameLvls[slot] = make([]int, n)
	}
	lv := w.frameLvls[slot][:n]
	if err := s.model.decideValidate(obs, lv); err != nil {
		return fail(err)
	}
	if first {
		sess.mu.Lock()
	} else if !sess.mu.TryLock() {
		return txnHeld
	}
	replayed, err := sess.decideBeginLocked(st.dreq.Seq, obs, lv)
	s.histBinDecode.Observe(time.Since(tx.t0).Nanoseconds())
	if err != nil {
		sess.mu.Unlock()
		return fail(err)
	}
	if replayed {
		sess.mu.Unlock()
		w.wbufs[slot] = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(w.wbufs[slot]), lv),
			wire.TDecideOK, h.ReqID)
		tx.ok = true
		w.txns = append(w.txns, tx)
		return txnAnswered
	}
	tx.sess = sess
	tx.levels = lv
	tx.lookOff = len(w.lookups)
	tx.lookLen = len(sess.lookups)
	w.lookups = append(w.lookups, sess.lookups...)
	w.obsTotal += n
	w.txns = append(w.txns, tx)
	return txnOpen
}

// retryHint is the backoff an error answer carries: for an overload shed,
// the batcher's adaptive hint, which tracks the queue's drain rate so shed
// clients space their retries to it.
func (s *Server) retryHint(err error) time.Duration {
	if errors.Is(err, ErrOverloaded) {
		return time.Duration(s.batch.backoffHintMs()) * time.Millisecond
	}
	return 0
}

// binError appends the TError answer for err to st.bw and reports whether
// the connection survives.
func (s *Server) binError(st *binConnState, reqID uint32, err error) bool {
	s.binErrors.Add(1)
	var keep bool
	st.wbuf, keep = AppendErrorFrame(st.wbuf, reqID, err, s.retryHint(err))
	st.bw.Write(st.wbuf)
	return keep
}

// windowError encodes the TError answer for err as window slot i's
// response; a stream-poisoning error closes the connection after the
// window's write.
func (s *Server) windowError(w *binWindow, i int, reqID uint32, err error) {
	s.binErrors.Add(1)
	var keep bool
	w.wbufs[i], keep = AppendErrorFrame(w.wbufs[i], reqID, err, s.retryHint(err))
	if !keep {
		w.closeAfter = true
	}
}

// AppendErrorFrame appends to dst the TError frame answering reqID with
// err: the error table's wire code (CodeBadRequest for an error the table
// does not name), the retry hint in milliseconds, and the message. keep
// reports whether the connection survives: a session-level failure keeps
// it open, while a wire decode error (a malformed but well-framed request)
// means the peer's encoder cannot be trusted, so the connection closes.
// Both binary fronts — a server's and a router's — answer through it.
func AppendErrorFrame(dst []byte, reqID uint32, err error, retryAfter time.Duration) (frame []byte, keep bool) {
	code := wire.CodeBadRequest
	if c := classify(err); c != nil {
		code = c.wire
	}
	frame = wire.FinishFrame(
		wire.AppendError(wire.BeginFrame(dst), code, uint32(retryAfter/time.Millisecond), err.Error()),
		wire.TError, reqID)
	keep = !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrBadPayload) && !errors.Is(err, wire.ErrBadType)
	return frame, keep
}

func statsToWire(st SessionStats) wire.Stats {
	return wire.Stats{
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		MeanReward: st.MeanReward,
		Epsilon:    st.Epsilon,
	}
}
