package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"time"

	"rlpm/internal/wire"
)

// ServeBin accepts binary-protocol connections on ln until the listener
// fails or the server drains or closes. It blocks; run it in its own
// goroutine. The listener is closed (and every live connection torn down)
// by Server.Close.
func (s *Server) ServeBin(ln net.Listener) error { return s.bin.Serve(ln, s.openConn) }

func (s *Server) openConn() FrontConn { return &serverConn{s: s} }

// serverConn is the FrontConn of a device connection to a Server: each
// call is served in place, a decide in full inside StartDecide.
type serverConn struct {
	s      *Server
	levels [][]int // per window slot, reused
}

func (c *serverConn) Create(_ context.Context, opts SessionOptions) (BinSessionInfo, error) {
	sess, err := c.s.CreateSession(opts)
	if err != nil {
		return BinSessionInfo{}, err
	}
	return c.s.sessionInfo(sess), nil
}

func (c *serverConn) Resume(_ context.Context, st ResumeState) (BinSessionInfo, error) {
	sess, err := c.s.ResumeSession(st)
	if err != nil {
		return BinSessionInfo{}, err
	}
	return c.s.sessionInfo(sess), nil
}

// sessionInfo is what a create or resume of sess answers. NumLevels is the
// model's own slice: fronts only encode it.
func (s *Server) sessionInfo(sess *Session) BinSessionInfo {
	return BinSessionInfo{Handle: sess.handle, Epoch: s.cfg.Epoch, NumLevels: s.model.levels}
}

func (c *serverConn) Reward(_ context.Context, handle uint64, epoch uint32, seq uint64, r float64) (wire.Stats, error) {
	sess, err := c.s.SessionByHandleEpoch(handle, epoch)
	if err != nil {
		return wire.Stats{}, err
	}
	st, err := sess.RewardSeq(seq, r)
	if err != nil {
		return wire.Stats{}, err
	}
	return statsToWire(st), nil
}

func (c *serverConn) Close(_ context.Context, handle uint64) (wire.Stats, error) {
	st, err := c.s.CloseSessionByHandle(handle)
	if err != nil {
		return wire.Stats{}, err
	}
	return statsToWire(st), nil
}

// StartDecide serves the frame in full into slot i's levels. An overload
// shed carries the server's backoff hint, so every front answers it with
// RetryAfter.
func (c *serverConn) StartDecide(i int, handle uint64, epoch uint32, seq uint64, obs []Observation) error {
	sess, err := c.s.SessionByHandleEpoch(handle, epoch)
	if err != nil {
		return err
	}
	for len(c.levels) <= i {
		c.levels = append(c.levels, nil)
	}
	if cap(c.levels[i]) < len(obs) {
		c.levels[i] = make([]int, len(obs))
	}
	lv := c.levels[i][:len(obs)]
	c.levels[i] = lv
	if _, err := sess.DecideSeq(seq, obs, lv); err != nil {
		if errors.Is(err, ErrOverloaded) {
			return &BackoffError{Err: err, RetryAfter: time.Duration(c.s.backoffHintMs()) * time.Millisecond}
		}
		return err
	}
	return nil
}

func (c *serverConn) Flush() {}

func (c *serverConn) FinishDecide(_ context.Context, i int) ([]int, error) { return c.levels[i], nil }

// sessionID is the JSON id of the session with handle h. Both processes
// print the handle, so an id names exactly one handle and a device cannot
// tell a router from a shard by its ids.
func sessionID(h uint64) string { return fmt.Sprintf("s-%06d", h) }

// handleOf is the handle a JSON session id names. Only the canonical form
// sessionID prints parses; any other id is handle 0, which no session
// has. It allocates nothing.
func handleOf(id string) uint64 {
	digits, ok := strings.CutPrefix(id, "s-")
	if !ok || len(digits) < 6 || (len(digits) > 6 && digits[0] == '0') {
		return 0
	}
	var h uint64
	for i := 0; i < len(digits); i++ {
		d := uint64(digits[i] - '0')
		if digits[i] < '0' || digits[i] > '9' || h > (math.MaxUint64-d)/10 {
			return 0
		}
		h = h*10 + d
	}
	return h
}
