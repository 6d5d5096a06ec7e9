// Client-side resilience plumbing shared by the binary and HTTP clients:
// typed transport errors, the retry/backoff loop every logical session
// call runs through, the session mirror that makes transparent resume
// possible, and RemoteSession, the one device session both clients open.
//
// The mirror is the heart of crash recovery. A client cannot ask a dead
// server for its session state, so it shadows that state locally: the
// mirror replays, draw for draw, the server session's exploration RNG and
// ε-decay on every *acknowledged* decide. Because the server's decide
// path changes no state on a refused request (every failure comes before
// the first draw) and is deduplicating
// (a retried sequence number replays the cached decision without new
// draws), "acknowledged exactly once on the client" equals "advanced
// exactly once on the server" — the two RNG streams stay in lockstep
// through drops, retries, and restarts. After a restart the client ships
// the mirror to the new incarnation (TResume / POST /v1/sessions/resume)
// and continues as if the process had never died.

package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/rng"
	"rlpm/internal/wire"
)

// ErrConnLost is wrapped into every call that failed because the shared
// transport connection died — the typed signal that the request may or
// may not have executed and a (deduplicated) retry is in order.
var ErrConnLost = errors.New("serve: connection lost")

// ErrCallTimeout is wrapped into calls abandoned at the per-call
// deadline. Like ErrConnLost, the request's fate is unknown.
var ErrCallTimeout = errors.New("serve: call timed out")

// BackoffError decorates a retryable error with the server's retry hint
// (the wire error frame's backoff field, or HTTP Retry-After). Retrieve
// with errors.As; errors.Is sees through it to the underlying sentinel.
type BackoffError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *BackoffError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.RetryAfter)
}

func (e *BackoffError) Unwrap() error { return e.Err }

// RetryAfter is the retry hint err carries, 0 when it carries none.
func RetryAfter(err error) time.Duration {
	var be *BackoffError
	if errors.As(err, &be) {
		return be.RetryAfter
	}
	return 0
}

// retryableErr reports whether a failed call is worth retrying: transport
// losses and timeouts (fate unknown — dedup makes the retry safe),
// overload sheds (the server asked for a retry), server shutdown (a
// restart may be in progress), and raw network errors (dial refused
// mid-restart). Session-state errors — closed, bad sequence, validation —
// are not retryable; ErrNoSession/ErrUnknownSession are handled by the
// resume path, not here.
func retryableErr(err error) bool {
	if errors.Is(err, ErrConnLost) || errors.Is(err, ErrCallTimeout) ||
		errors.Is(err, ErrOverloaded) || errors.Is(err, ErrServerClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// retryPolicy is the shared exponential-backoff-with-jitter schedule.
type retryPolicy struct {
	budget time.Duration // total window for one logical call's retries
	min    time.Duration // first backoff step
	max    time.Duration // backoff ceiling

	mu sync.Mutex
	jr *rng.Rand // jitter stream; timing-only, never touches decisions

	retries atomic.Uint64 // sleeps taken (i.e. attempts beyond the first)
	resumes atomic.Uint64 // sessions re-created after a lost incarnation
}

func newRetryPolicy(seed uint64) *retryPolicy {
	return &retryPolicy{
		budget: 30 * time.Second,
		min:    5 * time.Millisecond,
		max:    500 * time.Millisecond,
		jr:     rng.New(seed),
	}
}

// sleep waits one backoff step: the server's hint when it gave one,
// otherwise min·2^attempt clamped to max — then halved and jittered
// (uniform in [d/2, d)) so a fleet severed by one fault does not
// reconnect in one thundering herd.
func (p *retryPolicy) sleep(ctx ctxDone, attempt int, hint time.Duration) error {
	d := p.min << uint(attempt)
	if d > p.max || d <= 0 {
		d = p.max
	}
	if hint > 0 {
		d = hint
	}
	p.mu.Lock()
	f := p.jr.Float64()
	p.mu.Unlock()
	d = d/2 + time.Duration(f*float64(d/2))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// ctxDone is the sliver of context.Context the retry loop needs.
type ctxDone interface {
	Done() <-chan struct{}
	Err() error
}

// maxResumeStreak bounds consecutive resume attempts for one logical
// call, so a server that keeps forgetting the session cannot loop a
// client forever.
const maxResumeStreak = 5

// runRetries retries op under the policy after a first failed attempt
// whose error is err. onLost, when non-nil, re-creates a session the
// server no longer knows before the next attempt.
func runRetries(ctx ctxDone, pol *retryPolicy, err error, op func() error, onLost func() error) error {
	deadline := time.Now().Add(pol.budget)
	resumeStreak := 0
	for attempt := 0; ; attempt++ {
		switch {
		case onLost != nil && errors.Is(err, ErrNoSession):
			// Unknown or reaped session: re-create it from the mirror,
			// then retry the call against the fresh identity.
			resumeStreak++
			if resumeStreak > maxResumeStreak {
				return err
			}
			if rerr := onLost(); rerr != nil && !retryableErr(rerr) {
				return rerr
			}
		case retryableErr(err):
			resumeStreak = 0
		default:
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !time.Now().Before(deadline) {
			return err
		}
		pol.retries.Add(1)
		if serr := pol.sleep(ctx, attempt, RetryAfter(err)); serr != nil {
			return serr
		}
		if err = op(); err == nil {
			return nil
		}
	}
}

// sessionMirror shadows one server session's evolving state on the
// client. All methods are called from the session's owning goroutine
// (sessions are documented single-goroutine), so no locking.
type sessionMirror struct {
	opts   SessionOptions
	levels []int // per-cluster OPP counts

	explorer          // lockstep replica of the server session's exploration
	seq        uint64 // last acknowledged sequence number
	lastLevels []int  // decision for seq
	prevDemand []float64

	decisions, rewards uint64
	rewardSum          float64
}

func newSessionMirror(opts SessionOptions, levels []int) *sessionMirror {
	return &sessionMirror{
		opts:       opts,
		levels:     append([]int(nil), levels...),
		explorer:   newExplorer(opts),
		prevDemand: make([]float64, len(levels)),
	}
}

// nextSeq numbers the next decide attempt. Every retry of one logical
// decide reuses the same number — that is what the server dedups on.
func (m *sessionMirror) nextSeq() uint64 { return m.seq + 1 }

// ackDecide advances the mirror exactly as the server advanced serving
// the decide: demand history, the per-cluster exploration draws (the
// draws happen whether or not exploration won — only their *use*
// differs, and the mirror only needs the stream position), then ε decay,
// all by the server's own exploration step. Called once per acknowledged
// decide frame, never per attempt. A multi-period frame (len(obs) =
// K×clusters) advances K periods — draws and decay interleave exactly as
// K sequential single-period decides — and consumes K sequence numbers;
// lastLevels keeps only the final period's decision, which is all a
// resumed server can replay.
func (m *sessionMirror) ackDecide(obs []Observation, levels []int) {
	k := len(m.levels)
	periods := len(obs) / k
	for p := 0; p < periods; p++ {
		base := p * k
		for i := 0; i < k; i++ {
			m.prevDemand[i] = obs[base+i].DemandRatio
			m.draw(m.levels[i])
		}
		m.decay()
	}
	m.seq += uint64(periods)
	m.lastLevels = append(m.lastLevels[:0], levels[(periods-1)*k:]...)
	m.decisions += uint64(periods)
}

// nextRewardSeq numbers the next reward attempt — the acked-reward count
// plus one, the reward path's nextSeq. Every retry of one logical reward
// reuses the number; the server dedups on it, so a lost ack can never
// double-count the ledger or double-apply a live Q-update. The count also
// rides ResumeState.Rewards, seeding the new incarnation's dedup cursor.
func (m *sessionMirror) nextRewardSeq() uint64 { return m.rewards + 1 }

// ackReward advances the ledger for an acknowledged reward report.
func (m *sessionMirror) ackReward(r float64) {
	m.rewards++
	m.rewardSum += r
}

// resumeState packages the mirror for a new server incarnation.
func (m *sessionMirror) resumeState() ResumeState {
	return ResumeState{
		Options:    m.opts,
		Epsilon:    m.eps,
		Rng:        m.r.State(),
		Seq:        m.seq,
		LastLevels: append([]int(nil), m.lastLevels...),
		PrevDemand: append([]float64(nil), m.prevDemand...),
		Decisions:  m.decisions,
		Rewards:    m.rewards,
		RewardSum:  m.rewardSum,
	}
}

// errMalformedAnswer is wrapped into a call whose answer came back in a
// shape the request cannot have: a session with no clusters, a decide
// whose level count is not its observation count, a session id that is
// not a printed handle. Nothing is acknowledged, and the call is not
// retried.
var errMalformedAnswer = errors.New("serve: malformed answer")

// sessionClient is what a RemoteSession needs of the client it was opened
// on: one attempt of a request, whose answer's slices are the caller's own,
// and the retry policy its calls run under. BinClient and Client each
// supply the attempt of their transport.
type sessionClient interface {
	attempt(ctx context.Context, s *RemoteSession, req FrontReq) (FrontAns, error)
	policy() *retryPolicy
}

// RemoteSession is a device session held over the wire, on either
// transport: BinClient.OpenSession and Client.CreateSession both return
// one. Every call runs through one driver: refused once the session is
// closed, one attempt, and only after a failure retries with backoff. The
// session carries a mirror of the server-side state, so a retry
// deduplicates server-side and a session the server no longer knows —
// restarted, reaped, or handed off by a router — is re-created from the
// mirror (resume) without the caller seeing the gap.
//
// A session is used by one goroutine at a time; different sessions share
// their client freely.
type RemoteSession struct {
	// ID is the printed form of Handle.
	ID string
	// Handle names the session in Epoch, the server incarnation that
	// minted it. A resume replaces both.
	Handle uint64
	// NumLevels is the served chip's per-cluster OPP count.
	NumLevels []int
	Epoch     uint32

	closed bool
	c      sessionClient
	mirror *sessionMirror
}

// openSession creates a session over c. A create answered with no
// clusters fails.
func openSession(ctx context.Context, c sessionClient, opts SessionOptions) (*RemoteSession, error) {
	s := &RemoteSession{c: c}
	ans, err := s.do(ctx, FrontReq{Type: wire.TCreate, Opts: opts})
	if err != nil {
		return nil, err
	}
	if len(ans.Info.NumLevels) == 0 {
		return nil, fmt.Errorf("%w: session created with no clusters", errMalformedAnswer)
	}
	s.adopt(ans.Info)
	s.NumLevels = ans.Info.NumLevels
	s.mirror = newSessionMirror(opts, s.NumLevels)
	return s, nil
}

// do runs one logical call of the session: refused once the session is
// closed, then one attempt, and only after a failure runRetries. Each
// attempt carries the session's current handle and epoch, since a resume
// replaces them. A lost session is resumed from the mirror before the
// next attempt; a create has no session to resume, so a lost create is
// only retried, and any orphan a retry leaves on the server is collected
// by its TTL reaper.
func (s *RemoteSession) do(ctx context.Context, req FrontReq) (FrontAns, error) {
	if s.closed {
		return FrontAns{}, ErrSessionClosed
	}
	var ans FrontAns
	attempt := func() (err error) {
		req.Handle, req.Epoch = s.Handle, s.Epoch
		ans, err = s.c.attempt(ctx, s, req)
		return err
	}
	err := attempt()
	if err == nil {
		return ans, nil
	}
	var onLost func() error
	if req.Type != wire.TCreate {
		onLost = func() error { return s.resume(ctx) }
	}
	err = runRetries(ctx, s.c.policy(), err, attempt, onLost)
	return ans, err
}

// adopt takes the identity a create or resume minted.
func (s *RemoteSession) adopt(info BinSessionInfo) {
	s.Handle, s.Epoch = info.Handle, info.Epoch
	s.ID = sessionID(info.Handle)
}

// resume re-creates the session on the current server incarnation from
// the mirror, then adopts the fresh handle and epoch. The sequence number
// and RNG stream continue exactly where the lost session stopped.
func (s *RemoteSession) resume(ctx context.Context) error {
	ans, err := s.c.attempt(ctx, s, FrontReq{Type: wire.TResume, Resume: s.mirror.resumeState()})
	if err != nil {
		return err
	}
	s.adopt(ans.Info)
	s.c.policy().resumes.Add(1)
	return nil
}

// NumClusters returns the served chip's cluster count.
func (s *RemoteSession) NumClusters() int { return len(s.NumLevels) }

// Decide serves one control period: DecideMany with a one-period frame.
func (s *RemoteSession) Decide(ctx context.Context, obs []Observation) ([]int, error) {
	return s.DecideMany(ctx, obs)
}

// DecideMany resolves K consecutive control periods in one request: obs
// carries K×clusters observations, period by period, and the returned
// slice — freshly allocated — carries K×clusters levels in the same order,
// exactly as K one-period requests would have decided them. The request
// carries the session epoch and the next sequence number, so a retry
// deduplicates on the server, and a decide that outlives the server
// resumes and replays byte-identically. The mirror advances K periods only
// on an answer with one level per observation; any other answer
// acknowledges nothing.
func (s *RemoteSession) DecideMany(ctx context.Context, obs []Observation) ([]int, error) {
	if k := len(s.NumLevels); len(obs) == 0 || len(obs)%k != 0 {
		return nil, fmt.Errorf("%w: %d observations for %d clusters", ErrBadRequest, len(obs), k)
	}
	ans, err := s.do(ctx, FrontReq{Type: wire.TDecide, Seq: s.mirror.nextSeq(), Obs: obs})
	if err != nil {
		return nil, err
	}
	if len(ans.Levels) != len(obs) {
		return nil, fmt.Errorf("%w: %d levels for %d observations", errMalformedAnswer, len(ans.Levels), len(obs))
	}
	s.mirror.ackDecide(obs, ans.Levels)
	return ans.Levels, nil
}

// Reward reports a device-computed reward. The request carries the
// session epoch and the next reward sequence number, so a retry after a
// lost answer deduplicates server-side — the ledger counts it once and a
// learning server applies its Q-updates once.
func (s *RemoteSession) Reward(ctx context.Context, r float64) (SessionStats, error) {
	ans, err := s.do(ctx, FrontReq{Type: wire.TReward, Seq: s.mirror.nextRewardSeq(), Reward: r})
	if err != nil {
		return SessionStats{}, err
	}
	s.mirror.ackReward(r)
	return statsFromWire(s.ID, ans.Stats), nil
}

// Close ends the session and returns its final ledger. After a successful
// close the session is dead client-side: nothing resumes it.
func (s *RemoteSession) Close(ctx context.Context) (SessionStats, error) {
	ans, err := s.do(ctx, FrontReq{Type: wire.TClose})
	if err != nil {
		return SessionStats{}, err
	}
	s.closed = true
	return statsFromWire(s.ID, ans.Stats), nil
}
