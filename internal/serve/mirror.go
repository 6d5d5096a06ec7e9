// Client-side resilience plumbing shared by the binary and HTTP clients:
// typed transport errors, the retry/backoff loop every logical session
// call runs through, and the session mirror that makes transparent resume
// possible.
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

// runCall runs one logical call of a session: refused once the session is
// closed, then one attempt, and only after a failure runRetries. A session
// with a mirror recovers a lost session by resume before retrying; a bare
// session (nil mirror) only retries. attempt must read the session's
// identity afresh each time, since a resume replaces it.
func runCall(ctx context.Context, pol *retryPolicy, closed bool, m *sessionMirror, attempt func() error, resume func(context.Context) error) error {
	if closed {
		return ErrSessionClosed
	}
	err := attempt()
	if err == nil {
		return nil
	}
	var onLost func() error
	if m != nil {
		onLost = func() error { return resume(ctx) }
	}
	return runRetries(ctx, pol, err, attempt, onLost)
}

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

	eps        float64
	r          *rng.Rand // lockstep replica of the server session's RNG
	seq        uint64    // last acknowledged sequence number
	lastLevels []int     // decision for seq
	prevDemand []float64

	decisions, rewards uint64
	rewardSum          float64
}

func newSessionMirror(opts SessionOptions, levels []int) *sessionMirror {
	return &sessionMirror{
		opts:       opts,
		levels:     append([]int(nil), levels...),
		eps:        opts.Epsilon,
		r:          rng.New(opts.Seed),
		prevDemand: make([]float64, len(levels)),
	}
}

// nextSeq numbers the next decide attempt. Every retry of one logical
// decide reuses the same number — that is what the server dedups on.
func (m *sessionMirror) nextSeq() uint64 { return m.seq + 1 }

// ackDecide advances the mirror exactly as the server advanced serving
// the decide: demand history, the per-cluster exploration draws (the
// draws happen whether or not exploration won — only their *use*
// differs, and the mirror only needs the stream position), then ε decay.
// Called once per acknowledged decide frame, never per attempt. A
// multi-period frame (len(obs) = K×clusters) advances K periods — draws
// and decay interleave exactly as K sequential single-period decides —
// and consumes K sequence numbers; lastLevels keeps only the final
// period's decision, which is all a resumed server can replay.
func (m *sessionMirror) ackDecide(obs []Observation, levels []int) {
	k := len(m.levels)
	periods := len(obs) / k
	for p := 0; p < periods; p++ {
		base := p * k
		for i := 0; i < k; i++ {
			m.prevDemand[i] = obs[base+i].DemandRatio
			if m.eps > 0 && m.r.Float64() < m.eps {
				m.r.Intn(m.levels[i])
			}
		}
		if m.eps > 0 && m.opts.EpsilonDecay > 0 {
			m.eps *= m.opts.EpsilonDecay
			if m.eps < m.opts.EpsilonMin {
				m.eps = m.opts.EpsilonMin
			}
		}
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
