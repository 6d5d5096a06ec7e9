// Binary front: the router's wire-v2 listener. One goroutine per device
// connection, answering frames strictly in order (devices pipeline;
// responses must not reorder past the frames that produced them). Decide
// frames are forwarded in windows, as pmserve's binary front serves them:
// a decide frame opens a window, every complete decide frame already
// buffered behind it joins (up to maxWindowFrames, never blocking
// mid-window), each frame's forward is written into its shard
// connection's buffer without waiting, every shard connection the window
// touched is flushed once, and the answers, collected in frame order,
// leave in one vectored write. A window's forwards are all in flight
// together, so a stalled shard holds a connection for one call timeout
// per window, not one per frame. Other frames are forwarded one at a
// time. Error frames are encoded by serve.AppendErrorFrame, so they carry
// the same codes and backoff hints a shard itself would send — including
// the shard's own overload hint, which BinCaller surfaces as a
// BackoffError and the front re-encodes unchanged — and a device cannot
// tell a router from a shard.
package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"

	"rlpm/internal/serve"
	"rlpm/internal/wire"
)

// ServeBin accepts binary-protocol device connections on ln until the
// listener fails or the router closes. It blocks; run it in a goroutine.
func (r *Router) ServeBin(ln net.Listener) error {
	r.binMu.Lock()
	if r.binDown.Load() {
		r.binMu.Unlock()
		ln.Close()
		return serve.ErrServerClosed
	}
	r.binLns[ln] = struct{}{}
	r.binMu.Unlock()
	defer func() {
		r.binMu.Lock()
		delete(r.binLns, ln)
		r.binMu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.binDown.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.binMu.Lock()
		if r.binDown.Load() {
			r.binMu.Unlock()
			conn.Close()
			return nil
		}
		r.binConns[conn] = struct{}{}
		r.binWG.Add(1)
		r.binMu.Unlock()
		go r.serveBinConn(conn)
	}
}

// maxWindowFrames bounds the decide frames one window forwards, as on the
// shards.
const maxWindowFrames = 64

// routerConnState is one device connection's reusable working set.
type routerConnState struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	hdr     [wire.HeaderSize]byte
	payload []byte
	wbuf    []byte
	dreq    wire.DecideReq
	creq    wire.CreateReq
	rreq    wire.RewardReq
	clreq   wire.CloseReq
	rsreq   wire.ResumeReq
	caller  serve.BinCaller // forwards the frames served one at a time
	win     fwdWindow
}

// fwdFrame is one decide frame of a window: its request id, the caller
// that forwards it, and its answer. A window's frames are reused, caller
// and answer buffer included, so a warmed connection forwards without
// allocating.
type fwdFrame struct {
	reqID  uint32
	caller *serve.BinCaller
	answer []byte
	sent   bool // forward started: the answer is awaited
}

// fwdWindow is a connection's decide-window working set.
type fwdWindow struct {
	frames     []fwdFrame // the first n are the current window
	n          int
	touched    []*serve.BinClient // shard clients to flush, each once
	bufs       net.Buffers
	wv         net.Buffers // what WriteTo consumes, so bufs keeps its capacity
	closeAfter bool        // a frame poisoned the stream: answer, then hang up
}

// add opens the window's next frame slot.
func (w *fwdWindow) add(reqID uint32) *fwdFrame {
	if w.n == len(w.frames) {
		w.frames = append(w.frames, fwdFrame{caller: new(serve.BinCaller)})
	}
	f := &w.frames[w.n]
	w.n++
	f.reqID, f.sent = reqID, false
	return f
}

// fail answers f with err's error frame; a stream-poisoning error closes
// the connection after the window's write.
func (w *fwdWindow) fail(f *fwdFrame, err error) {
	var keep bool
	f.answer, keep = serve.AppendErrorFrame(f.answer, f.reqID, err, serve.RetryAfter(err))
	if !keep {
		w.closeAfter = true
	}
}

func (r *Router) serveBinConn(conn net.Conn) {
	defer func() {
		r.binMu.Lock()
		delete(r.binConns, conn)
		r.binMu.Unlock()
		conn.Close()
		r.binWG.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	st := &routerConnState{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.wbuf, _ = serve.AppendErrorFrame(st.wbuf, h.ReqID, err, 0)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				serve.GracefulClose(conn, st.br)
			}
			return
		}
		var keep bool
		if h.Type == wire.TDecide {
			keep = r.forwardDecideWindow(st, h)
		} else {
			keep = r.handleBinFrame(st, h)
		}
		if st.br.Buffered() == 0 || !keep {
			if err := st.bw.Flush(); err != nil {
				return
			}
		}
		if !keep {
			serve.GracefulClose(conn, st.br)
			return
		}
	}
}

// forwardDecideWindow forwards the decide frame in hand plus every
// complete decide frame already buffered behind it, then writes their
// answers in frame order. It reports whether the connection stays open.
//
// Frames of one session go out in frame order on the one shard connection
// that holds it, and the shard's own window serves each frame fully before
// it reads the next, so a session's frames are decided in order end to
// end. No context bounds a forward here: each shard client's
// call timeout is the router's CallTimeout, and every deadline of the
// window starts when its frame is written.
func (r *Router) forwardDecideWindow(st *routerConnState, h wire.Header) bool {
	w := &st.win
	w.n, w.touched, w.closeAfter = 0, w.touched[:0], false
	r.decideWindows.Add(1)
	r.beginForward(st, h)
	for !w.closeAfter && w.n < maxWindowFrames {
		if _, ok := wire.PeekDecide(st.br); !ok {
			break
		}
		gh, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			// The peek said a full frame was buffered, so this is
			// corruption, not truncation: answer in order and poison the
			// stream.
			w.fail(w.add(gh.ReqID), err)
			w.closeAfter = true
			break
		}
		r.beginForward(st, gh)
	}
	for _, bc := range w.touched {
		bc.Flush()
	}
	for i := 0; i < w.n; i++ {
		f := &w.frames[i]
		if !f.sent {
			continue
		}
		levels, err := r.finishDecide(context.Background(), f.caller)
		if err != nil {
			w.fail(f, err)
			continue
		}
		f.answer = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(f.answer), levels),
			wire.TDecideOK, f.reqID)
	}

	// Anything older already buffered in bw goes first so the stream stays
	// ordered, then the window's answers in one vectored write.
	if err := st.bw.Flush(); err != nil {
		return false
	}
	w.bufs = w.bufs[:0]
	for i := 0; i < w.n; i++ {
		w.bufs = append(w.bufs, w.frames[i].answer)
	}
	w.wv = w.bufs
	if _, err := w.wv.WriteTo(st.conn); err != nil {
		return false
	}
	return !w.closeAfter
}

// beginForward decodes the decide frame in st.payload into the window's
// next slot and starts its forward, or answers it in the slot. The
// observations are encoded into the forward before the next gathered
// frame overwrites st.dreq.
func (r *Router) beginForward(st *routerConnState, h wire.Header) {
	w := &st.win
	f := w.add(h.ReqID)
	if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
		w.fail(f, err)
		return
	}
	bc, err := r.beginDecide(f.caller, st.dreq.Handle, st.dreq.Epoch, st.dreq.Seq, st.dreq.Obs)
	if err != nil {
		w.fail(f, err)
		return
	}
	f.sent = true
	for _, t := range w.touched {
		if t == bc {
			return
		}
	}
	w.touched = append(w.touched, bc)
}

// binFrontError appends the TError frame for err, carrying the shard's
// backoff hint when the failure was an overload shed, and reports whether
// the connection survives.
func (r *Router) binFrontError(st *routerConnState, reqID uint32, err error) bool {
	var keep bool
	st.wbuf, keep = serve.AppendErrorFrame(st.wbuf, reqID, err, serve.RetryAfter(err))
	st.bw.Write(st.wbuf)
	return keep
}

// handleBinFrame forwards one non-decide request frame, appending exactly
// one response frame, and reports whether the connection stays open.
func (r *Router) handleBinFrame(st *routerConnState, h wire.Header) bool {
	ctx := context.Background() // each shard call is bounded by its client's call timeout
	switch h.Type {
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		opts, err := serve.OptionsFromWire(st.creq)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		info, err := r.CreateSession(ctx, &st.caller, opts)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TCreateOK, h.ReqID)
	case wire.TResume:
		if err := wire.ParseResumeReq(st.payload, &st.rsreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		rs, err := serve.ResumeFromWire(&st.rsreq)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		info, err := r.ResumeSession(ctx, &st.caller, rs)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendCreateOK(wire.BeginFrame(st.wbuf), info.Handle, info.Epoch, info.NumLevels),
			wire.TResumeOK, h.ReqID)
	case wire.TReward:
		if err := wire.ParseRewardReq(st.payload, &st.rreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		stats, err := r.Reward(ctx, &st.caller, st.rreq.Handle, st.rreq.Epoch, st.rreq.Seq, st.rreq.Reward)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), stats),
			wire.TRewardOK, h.ReqID)
	case wire.TClose:
		if err := wire.ParseCloseReq(st.payload, &st.clreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		stats, err := r.CloseSession(ctx, &st.caller, st.clreq.Handle)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendStats(wire.BeginFrame(st.wbuf), stats),
			wire.TCloseOK, h.ReqID)
	default:
		r.binFrontError(st, h.ReqID, wire.ErrBadType)
		return false
	}
	st.bw.Write(st.wbuf)
	return true
}
