// Binary-protocol server: persistent multiplexed TCP connections speaking
// internal/wire frames against the same sessions the HTTP handlers serve.
//
// Each connection is one goroutine owning all of its scratch — read/write
// buffers, decoded request structs, the decide window — so a warmed
// connection serves decide frames with zero allocations: frame read reuses
// the payload scratch, decode reuses the request's backing arrays (whose
// observations the sessions read directly), each frame is decided inline
// on the connection goroutine, and each response is appended into a
// reused buffer. Responses echo the request id, so a client may pipeline
// requests for many sessions over one connection; decide frames pipelined
// together are answered in one vectored write, and other responses are
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
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
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

// trackBinConn registers a live connection for teardown at Close; it
// reports false when the server already closed (the connection must not be
// served — Close's sweep may already have run).
func (s *Server) trackBinConn(c net.Conn) bool {
	if s.closed.Load() {
		return false
	}
	s.binMu.Lock()
	s.binConns[c] = struct{}{}
	s.binMu.Unlock()
	if s.closed.Load() { // raced Close's sweep: tear down ourselves
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
		opts, err := OptionsFromWire(st.creq)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.CreateSession(opts)
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
		rs, err := ResumeFromWire(&st.rsreq)
		if err != nil {
			return s.binError(st, h.ReqID, err)
		}
		sess, err := s.ResumeSession(rs)
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
// answer a pipelining client in one write, small enough that one slow
// frame never delays a connection's responses unboundedly.
const maxWindowFrames = 64

// binSlot is one decide frame of a connection window: its answer, the
// levels it was decided into, and its timing.
type binSlot struct {
	wbuf   []byte // response frame, reused
	levels []int  // decision output, reused
	t0     time.Time
	ok     bool // answered with TDecideOK (fresh or replayed)
}

// binWindow is a connection's reusable decide-window working set: one slot
// per gathered frame, so the answers leave in a single writev-style
// net.Buffers flush.
type binWindow struct {
	slots      []binSlot // index-aligned with the window's frames, reused
	n          int       // frames in the window
	bufs       net.Buffers
	wv         net.Buffers // what WriteTo consumes, so bufs keeps its capacity
	obsTotal   int         // observations gathered, for the MaxBatch budget
	closeAfter bool        // a frame poisoned the stream: answer, then hang up
}

// next opens the window's next frame slot.
func (w *binWindow) next() *binSlot {
	if w.n == len(w.slots) {
		w.slots = append(w.slots, binSlot{})
	}
	sl := &w.slots[w.n]
	w.n++
	sl.t0, sl.ok = time.Now(), false
	return sl
}

// serveBinDecideWindow serves the decide frame in hand plus every complete
// decide frame already buffered behind it (the pipelining window), each
// fully and in order before the next is read, and writes every answer in
// one vectored net.Buffers flush. No lock is held across frames, so two
// frames for one session are simply decided one after the other. A frame
// with nothing buffered behind it is a window of one. It reports whether
// the connection stays open.
func (s *Server) serveBinDecideWindow(st *binConnState, h wire.Header) bool {
	s.binFrames.Add(1)
	w := &st.win
	w.n, w.obsTotal, w.closeAfter = 0, 0, false
	s.serveBinDecide(st, h)
	// Gather: take a further frame only when it is a decide frame already
	// complete in the buffer (never block mid-window) and its
	// observations fit the MaxBatch budget.
	for !w.closeAfter && w.n < maxWindowFrames {
		if n, ok := wire.PeekDecide(st.br); !ok || w.obsTotal+n > s.cfg.MaxBatch {
			break
		}
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		s.binFrames.Add(1)
		if err != nil {
			// The peek said a full frame was buffered, so this is
			// corruption, not truncation: answer in order and poison the
			// stream.
			s.windowError(w, w.next(), gh.ReqID, err)
			w.closeAfter = true
			break
		}
		s.serveBinDecide(st, gh)
	}

	// Vectored flush: every answer of the window in one writev-style call,
	// in frame order. Anything older already buffered in bw goes first so
	// the stream stays ordered.
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
			s.histBinWrite.Observe(span)
			s.histBin.Observe(now.Sub(sl.t0).Nanoseconds())
		}
	}
	return !w.closeAfter
}

// serveBinDecide decodes the decide frame in st.payload and serves it —
// parse, session lookup, then the whole decide — encoding its answer,
// levels or an error, into the window's next slot. The observations are
// read straight from st.dreq, which the next gathered frame overwrites
// only after this decide returned.
func (s *Server) serveBinDecide(st *binConnState, h wire.Header) {
	w := &st.win
	sl := w.next()
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		s.windowError(w, sl, h.ReqID, err)
		return
	}
	obs := st.dreq.Obs
	w.obsTotal += len(obs)
	sess, err := s.SessionByHandleEpoch(st.dreq.Handle, st.dreq.Epoch)
	if err != nil {
		s.windowError(w, sl, h.ReqID, err)
		return
	}
	s.histBinDecode.Observe(time.Since(sl.t0).Nanoseconds())
	if cap(sl.levels) < len(obs) {
		sl.levels = make([]int, len(obs))
	}
	lv := sl.levels[:len(obs)]
	if _, err := sess.DecideSeq(st.dreq.Seq, obs, lv); err != nil {
		s.windowError(w, sl, h.ReqID, err)
		return
	}
	sl.wbuf = wire.FinishFrame(wire.AppendDecideOK(wire.BeginFrame(sl.wbuf), lv), wire.TDecideOK, h.ReqID)
	sl.ok = true
}

// retryHint is the backoff an error answer carries: for an overload shed,
// the server's backoff hint.
func (s *Server) retryHint(err error) time.Duration {
	if errors.Is(err, ErrOverloaded) {
		return time.Duration(s.backoffHintMs()) * time.Millisecond
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

// windowError encodes the TError answer for err as slot sl's response; a
// stream-poisoning error closes the connection after the window's write.
func (s *Server) windowError(w *binWindow, sl *binSlot, reqID uint32, err error) {
	s.binErrors.Add(1)
	var keep bool
	sl.wbuf, keep = AppendErrorFrame(sl.wbuf, reqID, err, s.retryHint(err))
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
