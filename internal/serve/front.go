package serve

import (
	"context"
	"errors"
	"math"
	"net"
	"slices"
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
// request is served in full inside Start, into its window slot's answer.
type serverConn struct {
	s   *Server
	ans []FrontAns // per window slot; the decide levels are reused
}

// Start serves req into slot i's answer. An overload shed carries the
// server's backoff hint, so every front answers it with RetryAfter.
func (c *serverConn) Start(i int, req *FrontReq) error {
	for len(c.ans) <= i {
		c.ans = append(c.ans, FrontAns{})
	}
	a := &c.ans[i]
	switch req.Type {
	case wire.TCreate:
		sess, err := c.s.CreateSession(req.Opts)
		if err != nil {
			return err
		}
		a.Info = c.s.sessionInfo(sess)
	case wire.TResume:
		sess, err := c.s.ResumeSession(req.Resume)
		if err != nil {
			return err
		}
		a.Info = c.s.sessionInfo(sess)
	case wire.TDecide:
		sess, err := c.s.SessionByHandleEpoch(req.Handle, req.Epoch)
		if err != nil {
			return err
		}
		a.Levels = slices.Grow(a.Levels[:0], len(req.Obs))[:len(req.Obs)]
		if _, err := sess.DecideSeq(req.Seq, req.Obs, a.Levels); err != nil {
			if errors.Is(err, ErrOverloaded) {
				return &BackoffError{Err: err, RetryAfter: time.Duration(c.s.backoffHintMs()) * time.Millisecond}
			}
			return err
		}
	case wire.TReward:
		sess, err := c.s.SessionByHandleEpoch(req.Handle, req.Epoch)
		if err != nil {
			return err
		}
		st, err := sess.RewardSeq(req.Seq, req.Reward)
		if err != nil {
			return err
		}
		a.Stats = st
	case wire.TClose:
		st, err := c.s.CloseSessionByHandle(req.Handle, req.Epoch)
		if err != nil {
			return err
		}
		a.Stats = st
	default:
		return wire.ErrBadType
	}
	return nil
}

// sessionInfo is what a create or resume of sess answers. NumLevels is the
// model's own slice: fronts only encode it.
func (s *Server) sessionInfo(sess *Session) BinSessionInfo {
	return BinSessionInfo{Handle: sess.handle, Epoch: s.cfg.Epoch, NumLevels: s.model.levels}
}

func (c *serverConn) Flush() {}

func (c *serverConn) Finish(_ context.Context, i int) (FrontAns, error) { return c.ans[i], nil }

// sessionID is the JSON id of the session with handle h: "s-" and the
// handle's decimal digits, zero-padded to six. Both processes print the
// handle, so an id names exactly one handle and a device cannot tell a
// router from a shard by its ids. It allocates only the string.
func sessionID(h uint64) string {
	var b [22]byte // "s-" and up to 20 digits
	i := len(b)
	for n := 0; n < 6 || h > 0; n++ {
		i--
		b[i] = byte('0' + h%10)
		h /= 10
	}
	i -= 2
	b[i], b[i+1] = 's', '-'
	return string(b[i:])
}

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
