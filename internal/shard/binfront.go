// Binary front: the router's wire-v2 listener. One goroutine per device
// connection, one BinCaller per connection as forwarding scratch, frames
// answered strictly in order (devices pipeline; responses must not
// reorder past the frames that produced them). Error frames are encoded
// by serve.AppendErrorFrame, so they carry the same codes and backoff
// hints a shard itself would send — including the shard's own overload
// hint, which BinCaller surfaces as a BackoffError and the front
// re-encodes unchanged — and a device cannot tell a router from a shard.
package shard

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"time"

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

// routerConnState is one device connection's reusable working set.
type routerConnState struct {
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
	caller  serve.BinCaller
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
		br: bufio.NewReaderSize(conn, 64<<10),
		bw: bufio.NewWriterSize(conn, 64<<10),
	}
	for {
		h, payload, err := wire.ReadFrame(st.br, &st.hdr, st.payload)
		st.payload = payload
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.wbuf, _ = serve.AppendErrorFrame(st.wbuf, h.ReqID, err, 0)
				st.bw.Write(st.wbuf)
				st.bw.Flush()
				routerGracefulClose(conn, st.br)
			}
			return
		}
		keep := r.handleBinFrame(st, h)
		if st.br.Buffered() == 0 || !keep {
			if err := st.bw.Flush(); err != nil {
				return
			}
		}
		if !keep {
			routerGracefulClose(conn, st.br)
			return
		}
	}
}

// routerGracefulClose mirrors the shard server's teardown: half-close and
// drain so the final error frame lands as data + EOF, not a reset.
func routerGracefulClose(conn net.Conn, br *bufio.Reader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
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

// handleBinFrame forwards one request frame, appending exactly one
// response frame, and reports whether the connection stays open.
func (r *Router) handleBinFrame(st *routerConnState, h wire.Header) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CallTimeout)
	defer cancel()
	switch h.Type {
	case wire.TDecide:
		if err := wire.ParseDecideReq(st.payload, &st.dreq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		levels, err := r.Decide(ctx, &st.caller, st.dreq.Handle, st.dreq.Epoch, st.dreq.Seq, st.dreq.Obs)
		if err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		st.wbuf = wire.FinishFrame(
			wire.AppendDecideOK(wire.BeginFrame(st.wbuf), levels),
			wire.TDecideOK, h.ReqID)
	case wire.TCreate:
		if err := wire.ParseCreateReq(st.payload, &st.creq); err != nil {
			return r.binFrontError(st, h.ReqID, err)
		}
		info, err := r.CreateSession(ctx, &st.caller, serve.OptionsFromWire(st.creq))
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
		info, err := r.ResumeSession(ctx, &st.caller, serve.ResumeFromWire(&st.rsreq))
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
