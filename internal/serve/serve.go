// Package serve is the fleet-scale decision-serving subsystem: it hosts a
// trained power-management policy as a shared, frozen resource and serves
// OPP decisions to many managed devices over HTTP/JSON.
//
// The journal extension's headline is that the policy's decision latency is
// what makes it deployable; this package turns the single-process
// reproduction into a client/server inference stack shaped like a
// production deployment:
//
//   - a Model is a Q-table set (one table per DVFS domain) packed into
//     one flat arena, built from a core.Snapshot — trained in software,
//     loaded from a checkpoint, or both — and never written while served;
//   - each managed device owns a Session with device-local exploration
//     state (ε schedule, RNG stream, demand-trend history), so serving a
//     fleet never entangles one device's stochastic behaviour with
//     another's;
//   - every decide frame is served in one pass on the goroutine that
//     received it — a binary connection, an HTTP handler or an in-process
//     caller: validate, admit, lock the session, dedup, then for each
//     period and cluster encode the state, draw exploration and read the
//     greedy action from the policy pinned once for the frame, then
//     commit. Nothing after the dedup check can fail, so a session holds
//     device state only: no rollback snapshot, no lookup scratch;
//   - overload control needs no queue: at most 4×MaxBatch decides are in
//     flight, and past that bound a decide fails fast with ErrOverloaded
//     and changes no state;
//   - the backend is an A/B flag: the software table walk and the modeled
//     hardware accelerator (optionally wrapped with internal/fault's
//     injector) serve the same API, so HW-vs-SW serving latency is one
//     command-line switch apart. The accelerator is one device, so its
//     MMIO transactions serialize on a device mutex;
//   - trained tables persist through the versioned, checksummed checkpoint
//     codec (core.EncodeCheckpoint) with atomic write-rename, so a server
//     restart resumes the exact frozen policy.
//
// Observable state — sessions, decisions served, decides in flight,
// checkpoint age — is exported via /metrics and /healthz, so load tests
// assert on counters instead of sleeps.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/obs"
	"rlpm/internal/rng"
	"rlpm/internal/sim"
	"rlpm/internal/wire"
)

// ErrServerClosed is returned by decision paths once the server has shut
// down.
var ErrServerClosed = errors.New("serve: server closed")

// ErrSessionClosed is returned when a request addresses a closed session.
var ErrSessionClosed = errors.New("serve: session closed")

// ErrNoSession is returned when a request addresses an unknown session id.
var ErrNoSession = errors.New("serve: no such session")

// ErrUnknownSession is returned when an epoch-carrying request addresses a
// session this server incarnation does not know — the handle is stale or
// the epoch belongs to a previous process. It wraps ErrNoSession (so
// existing not-found handling still fires) but is distinguishable with
// errors.Is, because the recovery differs: an unknown session is
// *resumable* — the client re-creates it from its last acked state —
// while a plainly missing session is a caller bug.
var ErrUnknownSession = fmt.Errorf("%w (stale handle or epoch; resume required)", ErrNoSession)

// ErrBadSeq is returned when a decide's sequence number is neither the
// next expected one nor a replay of the last served one. It means the
// client and server disagree about history — retrying cannot help.
var ErrBadSeq = errors.New("serve: bad request sequence")

// ErrOverloaded is returned when a decide arrives with the in-flight bound
// (4×Config.MaxBatch) reached: the server sheds load instead of queueing
// it, and the shed decide changes no state. Callers should back off and
// retry; the HTTP layer maps it to 429, the binary protocol to
// CodeOverloaded.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrBadRequest marks a client fault: the server understood the transport
// but refused the request itself (malformed body or frame payload, wrong
// cluster count, out-of-range option or observation). Retrying the same
// bytes cannot help, so the retry loop treats it as terminal. The router
// forwards it unchanged — the device client is the party that must fix
// its request.
var ErrBadRequest = errors.New("serve: bad request")

// errClass is one row of the protocol error table: a sentinel and how
// each transport spells it.
type errClass struct {
	err    error
	wire   uint16 // binary protocol error code
	status int    // HTTP status
	code   string // JSON error body code
}

// errTable is the one mapping between the serve sentinels and the codes
// both transports carry; servers, routers and clients all read it.
// ErrUnknownSession wraps ErrNoSession, so it must be matched first: the
// codes differ because the recoveries differ (resume vs give up).
var errTable = [...]errClass{
	{ErrUnknownSession, wire.CodeUnknownSession, http.StatusNotFound, "unknown_session"},
	{ErrNoSession, wire.CodeNoSession, http.StatusNotFound, "no_session"},
	{ErrSessionClosed, wire.CodeSessionClosed, http.StatusGone, "session_closed"},
	{ErrBadSeq, wire.CodeBadSeq, http.StatusConflict, "bad_seq"},
	{ErrBadRequest, wire.CodeBadRequest, http.StatusBadRequest, "bad_request"},
	{ErrServerClosed, wire.CodeServerClosed, http.StatusServiceUnavailable, "server_closed"},
	{ErrOverloaded, wire.CodeOverloaded, http.StatusTooManyRequests, "overloaded"},
}

// classify returns the table row for the first sentinel err matches, or
// nil when the table names none of them.
func classify(err error) *errClass {
	for i := range errTable {
		if errors.Is(err, errTable[i].err) {
			return &errTable[i]
		}
	}
	return nil
}

// Model is a served policy: per-cluster Q-tables packed into one
// core.FlatTables arena — the only copy of the tables — plus the state
// encoding they were trained with. A published Model is never written, so
// it is safe for concurrent readers. A model built by NewModel stays
// immutable for its lifetime; the online learner rewrites a model it owns
// only after retiring it from the backend and seeing its reader count at
// zero (see learner.publishLocked).
type Model struct {
	cfg     core.Config
	levels  []int // per-cluster OPP counts
	flat    *core.FlatTables
	readers atomic.Int64 // decide frames holding the model through SWBackend
}

// NewModel builds a Model from a snapshot, copying its tables into one
// arena. cfg supplies the state encoding and must match the snapshot's
// recorded StateConfig; table shapes are validated against it, and a
// shape the arena cannot pack (an action count outside
// 1..core.MaxFlatActions) is rejected.
func NewModel(cfg core.Config, snap core.Snapshot) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap.State != cfg.State {
		return nil, fmt.Errorf("serve: snapshot state config %+v != serving config %+v", snap.State, cfg.State)
	}
	if len(snap.Tables) == 0 {
		return nil, fmt.Errorf("serve: snapshot has no tables")
	}
	m := &Model{cfg: cfg}
	for c, t := range snap.Tables {
		if len(t) == 0 || len(t[0]) == 0 {
			return nil, fmt.Errorf("serve: cluster %d table is empty", c)
		}
		actions := len(t[0])
		if len(t) != cfg.State.States(actions) {
			return nil, fmt.Errorf("serve: cluster %d table has %d states, config needs %d for %d actions",
				c, len(t), cfg.State.States(actions), actions)
		}
		for i, row := range t {
			if len(row) != actions {
				return nil, fmt.Errorf("serve: cluster %d row %d has %d actions, row 0 has %d", c, i, len(row), actions)
			}
		}
		m.levels = append(m.levels, actions)
	}
	if m.flat = core.NewFlatTables(snap.Tables); m.flat == nil {
		return nil, fmt.Errorf("serve: cannot pack tables with action counts %v into the flat arena (each must be in 1..%d)",
			m.levels, core.MaxFlatActions)
	}
	return m, nil
}

// ModelFromPolicy freezes a trained software policy into a serving model.
func ModelFromPolicy(p *core.Policy, cfg core.Config) (*Model, error) {
	snap, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	return NewModel(cfg, snap)
}

// Clusters returns the number of DVFS domains the model decides for.
func (m *Model) Clusters() int { return len(m.levels) }

// NumLevels returns a copy of the per-cluster OPP counts.
func (m *Model) NumLevels() []int { return append([]int(nil), m.levels...) }

// Config returns the serving configuration (state encoding, reward terms).
func (m *Model) Config() core.Config { return m.cfg }

// Snapshot rebuilds the model's tables from the arena as a deep-copied
// snapshot, ready for checkpointing. It copies every table, so it belongs
// on cold paths (checkpoint save, learner hydration), not per decision.
func (m *Model) Snapshot() core.Snapshot {
	return core.Snapshot{State: m.cfg.State, Tables: m.flat.Tables()}
}

// Greedy returns the argmax action for (cluster, state); ties break low,
// matching core.Agent and the hardware comparator tree.
func (m *Model) Greedy(cluster, state int) int { return m.flat.Argmax(cluster, state) }

// Observation is one cluster's telemetry for one control period. It is
// the wire record itself, so neither transport converts it.
type Observation = wire.Obs

// policyObs is o as the policy reads it, for a cluster with numLevels OPPs:
// the one conversion from a served observation to sim's.
func policyObs(o *Observation, numLevels int) sim.Observation {
	return sim.Observation{
		Utilization: o.Utilization,
		DemandRatio: o.DemandRatio,
		QoS:         o.QoS,
		ClusterQoS:  o.ClusterQoS,
		Critical:    o.Critical,
		Level:       o.Level,
		NumLevels:   numLevels,
	}
}

// wireObs writes a simulated device's observations into dst, one per
// cluster: the one conversion from sim's observation to a served one.
func wireObs(dst []Observation, obs []sim.Observation) {
	for i, o := range obs {
		dst[i] = Observation{
			Utilization: o.Utilization,
			DemandRatio: o.DemandRatio,
			QoS:         o.QoS,
			ClusterQoS:  o.ClusterQoS,
			Critical:    o.Critical,
			Level:       o.Level,
		}
	}
}

// Cohort names for SessionOptions.Cohort. On a learning server the cohort
// is the A/B arm: learning sessions read the live (swapped) policy and
// their rewards feed the learner; frozen sessions read the construction
// model forever and their rewards only feed the ledger. On a non-learning
// server both behave identically (there is nothing to diverge from).
const (
	CohortLearning = "learning"
	CohortFrozen   = "frozen"
)

// SessionOptions parameterize a device session at creation.
type SessionOptions struct {
	// Epsilon is the device-local exploration rate. 0 (the default) serves
	// pure greedy decisions — the deployment mode.
	Epsilon float64 `json:"epsilon,omitempty"`
	// EpsilonMin floors the decayed exploration rate.
	EpsilonMin float64 `json:"epsilon_min,omitempty"`
	// EpsilonDecay multiplies ε after every decision; 0 means no decay.
	EpsilonDecay float64 `json:"epsilon_decay,omitempty"`
	// Seed drives the session's exploration stream.
	Seed uint64 `json:"seed,omitempty"`
	// Cohort is the A/B arm on a learning server: "" or CohortLearning
	// follows the live policy and feeds the learner, CohortFrozen is pinned
	// to the construction-time model as the control arm.
	Cohort string `json:"cohort,omitempty"`
}

func (o SessionOptions) validate() error {
	if o.Epsilon < 0 || o.Epsilon > 1 {
		return fmt.Errorf("%w: epsilon %v out of [0,1]", ErrBadRequest, o.Epsilon)
	}
	if o.EpsilonMin < 0 || o.EpsilonMin > o.Epsilon {
		return fmt.Errorf("%w: epsilon floor %v out of [0,%v]", ErrBadRequest, o.EpsilonMin, o.Epsilon)
	}
	if o.EpsilonDecay < 0 || o.EpsilonDecay > 1 {
		return fmt.Errorf("%w: epsilon decay %v out of [0,1]", ErrBadRequest, o.EpsilonDecay)
	}
	if o.Cohort != "" && o.Cohort != CohortLearning && o.Cohort != CohortFrozen {
		return fmt.Errorf("%w: unknown cohort %q", ErrBadRequest, o.Cohort)
	}
	return nil
}

// SessionStats is the per-session ledger returned by reward and close.
type SessionStats struct {
	ID         string  `json:"id"`
	Decisions  uint64  `json:"decisions"`
	Rewards    uint64  `json:"rewards"`
	MeanReward float64 `json:"mean_reward"`
	Epsilon    float64 `json:"epsilon"`
}

// Session is one managed device's serving state: device state only. All
// exploration state is device-local; the Q-tables are shared. Methods
// serialize on the session's own mutex, so one device's request stream is
// totally ordered while different devices proceed concurrently.
type Session struct {
	id     string
	handle uint64 // the session's identity on both protocols; id prints it
	srv    *Server

	mu     sync.Mutex
	closed bool
	// frozen pins the session to the construction-time model: its lookups
	// read that model, never the backend's live (swapped) policy, and its
	// rewards never feed the learner — the control arm of the A/B.
	frozen bool
	explorer
	prevDemand []float64

	// Retry dedup: lastSeq is the highest sequence number served,
	// lastLevels the decisions of the frame that served it, lastPeriods how
	// many control periods that frame carried (its first period's seq is
	// lastSeq-lastPeriods+1). A retry carrying that first seq with the same
	// period count replays the cached frame without touching the RNG or
	// demand history, so a response lost to the network can never produce a
	// divergent second decision.
	lastSeq     uint64
	lastLevels  []int
	lastPeriods int

	// lastRewardSeq mirrors lastSeq for the reward path: the highest reward
	// sequence number applied. A retry carrying the same seq replays the
	// current ledger without re-applying — the reward-path half of the
	// exactly-once story (decides have lastSeq/lastLevels).
	lastRewardSeq uint64

	// hist is the learner's view of the session: its last two decided
	// periods. nil unless the session is in the learning arm of a learning
	// server.
	hist *learnHistory

	lastActive atomic.Int64 // unix nanos of the last request, for TTL reaping

	decisions uint64
	rewards   uint64
	rewardSum float64
}

// learnHistory is the per-cluster (state, action) of a session's last two
// decided control periods, which the next reward pairs into transitions.
// The decide loop rolls it forward period by period, so a K-period frame
// leaves exactly the history K single-period decides would.
type learnHistory struct {
	prev, cur         []stateAction
	havePrev, haveCur bool
}

type stateAction struct{ state, action int }

// explorer is a session's ε-greedy exploration state: the rate, its floor
// and per-period decay, and the RNG its draws come from. The server's
// Session draws from it and the client's mirror replays it, so both
// advance the stream by this one code.
type explorer struct {
	eps, epsMin, epsDecay float64
	r                     rng.Rand
}

// newExplorer is the exploration state a session created with opts
// starts from.
func newExplorer(opts SessionOptions) explorer {
	return explorer{eps: opts.Epsilon, epsMin: opts.EpsilonMin, epsDecay: opts.EpsilonDecay, r: *rng.New(opts.Seed)}
}

// draw is one cluster's exploration draw over n levels: whether
// exploration won and, if it did, the level it chose. It inlines, so a
// greedy session (ε 0) draws nothing and pays no call.
func (e *explorer) draw(n int) (int, bool) {
	if e.eps <= 0 {
		return 0, false
	}
	return e.explore(n)
}

func (e *explorer) explore(n int) (int, bool) {
	if e.r.Float64() < e.eps {
		return e.r.Intn(n), true
	}
	return 0, false
}

// decay ends a control period: ε decays once, down to its floor.
func (e *explorer) decay() {
	if e.eps > 0 && e.epsDecay > 0 {
		e.eps *= e.epsDecay
		if e.eps < e.epsMin {
			e.eps = e.epsMin
		}
	}
}

func newLearnHistory(clusters int) *learnHistory {
	sa := make([]stateAction, 2*clusters)
	return &learnHistory{prev: sa[:clusters:clusters], cur: sa[clusters:]}
}

// roll opens a new period: the current one becomes the previous one, and
// the caller fills cur.
func (h *learnHistory) roll() {
	if h.haveCur {
		copy(h.prev, h.cur)
		h.havePrev = true
	}
	h.haveCur = true
}

// ID returns the session's JSON id: its handle, printed.
func (s *Session) ID() string { return s.id }

// Handle returns the session's numeric identity — what the binary protocol
// carries, so the hot path never formats or hashes strings, and what the
// JSON front parses its id back to.
func (s *Session) Handle() uint64 { return s.handle }

// Decide serves one or more control periods: encodes each cluster's
// observation into the discrete state (using the session-local
// demand-trend history), explores with the session-local ε/RNG, and reads
// every exploitation lookup from the policy pinned for the frame. obs may
// carry K consecutive periods (K×clusters entries, period by period); the
// returned slice is freshly allocated with one level per observation. The
// binary protocol's hot path uses DecideInto with a caller-owned slice
// instead.
func (s *Session) Decide(obs []Observation) ([]int, error) {
	levels := make([]int, len(obs))
	if err := s.DecideInto(obs, levels); err != nil {
		return nil, err
	}
	return levels, nil
}

// DecideInto is Decide writing the chosen level per observation into
// levels, which must have length len(obs). A warmed session decides with
// zero allocations.
func (s *Session) DecideInto(obs []Observation, levels []int) error {
	_, err := s.DecideSeq(0, obs, levels)
	return err
}

// DecideSeq is DecideInto with retry deduplication. seq 0 is the legacy
// unsequenced path. Otherwise seq must be the first period's sequence
// number: the session's next one (lastSeq+1) — the whole frame is
// computed and cached — or a replay of the last served frame's first seq
// with the same period count, which returns the cached frame with
// replayed=true and advances nothing: no RNG draws, no demand-history
// write, no ledger bump. Any other seq fails with ErrBadSeq. A K-period
// frame consumes K sequence numbers; lastSeq afterwards is seq+K-1.
//
// The frame is served in one pass on the calling goroutine: validate,
// admit (the in-flight bound), lock the session, dedup, decide every
// period, commit. Every failure comes before the first state change, so a
// refused frame leaves the session exactly as it was and a client retry
// replays the same stochastic draws. A K-period frame draws, decays ε,
// and updates demand history exactly as K sequential single-period
// decides would — byte-identical decisions — while paying one lock, one
// policy pin, and one dedup check.
func (s *Session) DecideSeq(seq uint64, obs []Observation, levels []int) (replayed bool, err error) {
	srv := s.srv
	if err := srv.model.decideValidate(obs, levels); err != nil {
		return false, err
	}
	if err := srv.admit(); err != nil {
		return false, err
	}
	defer srv.inflight.Add(-1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrSessionClosed
	}
	s.lastActive.Store(nanotime())
	periods := len(obs) / srv.model.Clusters()
	if seq != 0 {
		replaySeq := s.lastSeq
		if s.lastPeriods > 0 {
			replaySeq = s.lastSeq - uint64(s.lastPeriods) + 1
		}
		switch {
		case s.lastPeriods > 0 && seq == replaySeq && periods == s.lastPeriods && len(levels) == len(s.lastLevels):
			copy(levels, s.lastLevels)
			srv.decidesDeduped.Add(1)
			return true, nil
		case seq != s.lastSeq+1:
			return false, fmt.Errorf("%w: got %d, expected %d or replay of %d", ErrBadSeq, seq, s.lastSeq+1, replaySeq)
		}
	}
	s.decideLocked(obs, levels)
	if seq != 0 {
		s.lastSeq = seq + uint64(periods) - 1
		s.lastPeriods = periods
		s.lastLevels = append(s.lastLevels[:0], levels...)
	}
	return false, nil
}

// decideValidate checks a decide's shape against the frozen model: a
// positive whole number of periods, one level slot per observation, and
// every reported level in range. Read-only on the immutable model, so it
// runs before the session lock is taken.
func (m *Model) decideValidate(obs []Observation, levels []int) error {
	k := m.Clusters()
	if len(obs) == 0 || len(obs)%k != 0 {
		return fmt.Errorf("%w: %d observations for %d clusters", ErrBadRequest, len(obs), k)
	}
	if len(levels) != len(obs) {
		return fmt.Errorf("%w: %d level slots for %d observations", ErrBadRequest, len(levels), len(obs))
	}
	for i := range obs {
		o, c := &obs[i], i%k
		if o.Level < 0 || o.Level >= m.levels[c] {
			return fmt.Errorf("%w: cluster %d level %d out of [0,%d)", ErrBadRequest, c, o.Level, m.levels[c])
		}
		if err := m.cfg.ValidateObservation(policyObs(o, m.levels[c])); err != nil {
			// NaN/Inf/negative ratios would discretize onto a valid bin and
			// silently poison a learning server's Q-table; reject them at
			// the door as a client error.
			return fmt.Errorf("%w: cluster %d: %v", ErrBadRequest, c, err)
		}
	}
	return nil
}

// decideLocked decides every period of a validated frame and bumps the
// ledgers; it cannot fail. Caller holds s.mu. For each period and cluster
// it encodes the state, draws exploration, and otherwise reads the greedy
// action: a frozen session from the construction model, any other from the
// backend's policy, pinned at the frame's first such lookup and released
// at its end. The learner's history rolls forward period by period.
func (s *Session) decideLocked(obs []Observation, levels []int) {
	srv := s.srv
	m := srv.model
	k := m.Clusters()
	t0 := time.Now()
	var (
		p                          policy
		explored, greedy, fromLive int
	)
	h := s.hist
	for base := 0; base < len(obs); base += k {
		if h != nil {
			h.roll()
		}
		for i := 0; i < k; i++ {
			o := &obs[base+i]
			state := m.cfg.EncodeState(policyObs(o, m.levels[i]), s.prevDemand[i])
			s.prevDemand[i] = o.DemandRatio
			a, explore := s.draw(m.levels[i])
			switch {
			case explore:
				explored++
			case s.frozen:
				a = m.Greedy(i, state)
				greedy++
			default:
				if p == nil {
					p = srv.backend.acquire()
				}
				a = p.Greedy(i, state)
				greedy++
				fromLive++
			}
			levels[base+i] = a
			if h != nil {
				h.cur[i] = stateAction{state, a}
			}
		}
		// ε decays once per control period — exactly as K sequential
		// single-period decides would have decayed it between draws.
		s.decay()
	}
	if p != nil {
		srv.backend.release(p)
		srv.noteFrame(fromLive, time.Since(t0))
	}
	periods := uint64(len(obs) / k)
	s.decisions += periods
	srv.decisions.Add(periods)
	srv.lookupsServed.Add(uint64(greedy))
	if explored > 0 {
		srv.explorations.Add(uint64(explored))
	}
}

// nanotime is the session-activity clock (monotonic enough for TTLs).
func nanotime() int64 { return time.Now().UnixNano() }

// Reward records a device-reported reward without retry deduplication —
// the legacy unsequenced path, equivalent to RewardSeq(0, r).
func (s *Session) Reward(r float64) (SessionStats, error) {
	return s.RewardSeq(0, r)
}

// RewardSeq records a device-reported reward with retry deduplication,
// mirroring DecideSeq's discipline on the reward path. seq 0 is the legacy
// unsequenced path. Otherwise seq must be the session's next reward
// sequence number (lastRewardSeq+1) — the reward is applied exactly once:
// ledger, fleet counter, and (on a learning server) the Q-update queue — or
// a replay of the last applied one, which returns the current ledger and
// applies nothing. Any other seq fails with ErrBadSeq. Without this, a
// client retry after a lost ack double-counts rewardSum and
// serve_rewards_total, and would double-apply live Q-updates.
func (s *Session) RewardSeq(seq uint64, r float64) (SessionStats, error) {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return SessionStats{}, fmt.Errorf("%w: non-finite reward %v", ErrBadRequest, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionStats{}, ErrSessionClosed
	}
	s.lastActive.Store(nanotime())
	if seq != 0 {
		switch {
		case seq == s.lastRewardSeq:
			s.srv.rewardsDeduped.Add(1)
			return s.statsLocked(), nil
		case seq != s.lastRewardSeq+1:
			return SessionStats{}, fmt.Errorf("%w: reward seq %d, expected %d or replay of %d",
				ErrBadSeq, seq, s.lastRewardSeq+1, s.lastRewardSeq)
		}
		s.lastRewardSeq = seq
	}
	s.rewards++
	s.rewardSum += r
	s.srv.rewards.Add(1)
	s.srv.noteRewardLocked(s, r)
	return s.statsLocked(), nil
}

// Stats returns the session ledger.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Session) statsLocked() SessionStats {
	st := SessionStats{ID: s.id, Decisions: s.decisions, Rewards: s.rewards, Epsilon: s.eps}
	if s.rewards > 0 {
		st.MeanReward = s.rewardSum / float64(s.rewards)
	}
	return st
}

// Config parameterizes a Server.
type Config struct {
	// MaxBatch bounds the decide work the server takes on at once
	// (default 256). A binary connection's decide window gathers frames
	// while their observations fit in MaxBatch (a single larger frame is
	// a window of its own), and at most 4×MaxBatch decides are in flight:
	// past that bound a decide fails fast with ErrOverloaded.
	MaxBatch int
	// CheckpointPath, when non-empty, is where POST /v1/checkpoint
	// persists the model.
	CheckpointPath string
	// Epoch identifies this server incarnation. Session handles are only
	// valid within the epoch that minted them; an epoch-carrying request
	// against a different incarnation fails with ErrUnknownSession, which
	// tells the client to resume rather than blindly reuse a handle that
	// may now belong to someone else. Defaults to 1; restarts should pass
	// a fresh value.
	Epoch uint32
	// SessionTTL, when positive, bounds the session map: sessions idle
	// longer than the TTL are reaped (closed and counted in
	// serve_sessions_reaped_total). 0 disables reaping — no reaper
	// goroutine runs.
	SessionTTL time.Duration
	// DrainGrace is how long Drain lets connections finish their buffered
	// frames before forcing them closed. Defaults to 250ms.
	DrainGrace time.Duration
	// Learn configures the online learner; zero value disabled — the
	// server hosts a frozen policy exactly as before.
	Learn LearnConfig
}

// DefaultMaxBatch is Config.MaxBatch's default.
const DefaultMaxBatch = 256

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 250 * time.Millisecond
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: negative MaxBatch %d", c.MaxBatch)
	}
	if c.SessionTTL < 0 {
		return fmt.Errorf("serve: negative SessionTTL %v", c.SessionTTL)
	}
	if c.DrainGrace < 0 {
		return fmt.Errorf("serve: negative DrainGrace %v", c.DrainGrace)
	}
	if err := c.Learn.validate(); err != nil {
		return err
	}
	return nil
}

// Server hosts sessions over a shared model and backend. Create one with
// New, expose it with Handler, and Close it to stop its goroutines. Every
// decide runs on the goroutine that received it.
type Server struct {
	cfg     Config
	model   *Model
	backend Backend
	start   time.Time

	mu       sync.Mutex
	handles  map[uint64]*Session // every live session, by handle
	nextID   uint64
	closed   atomic.Bool // set once by Close; written under mu
	draining bool

	// Overload control without a queue: inflight counts decides admitted
	// and not yet returned, bounded at maxInflight (see admit).
	inflight    atomic.Int64
	maxInflight int64
	// ewmaDecideNs tracks the recent decide-loop time (α=1/8) of frames
	// that read the shared policy; it sizes the backoff hint handed to
	// shed clients. Concurrent updates may drop a sample, which only
	// slows the average.
	ewmaDecideNs atomic.Int64
	maxOcc       atomic.Uint64 // largest count of shared-policy lookups in one frame

	reapQuit chan struct{} // nil unless a TTL reaper is running
	reapWG   sync.WaitGroup

	bin  *BinFront
	json *JSONFront

	reg    *obs.Registry
	events *obs.EventLog

	decisions       *obs.Counter // decide calls served
	lookupsServed   *obs.Counter // individual table lookups
	explorations    *obs.Counter // decisions taken by device-local exploration
	rewards         *obs.Counter
	rewardsDeduped  *obs.Counter // reward retries answered from the dedup ledger
	sessionsCreated *obs.Counter
	sessionsClosed  *obs.Counter
	sessionsReaped  *obs.Counter   // sessions closed by the TTL reaper
	decidesDeduped  *obs.Counter   // decide retries answered from the replay cache
	resumes         *obs.Counter   // sessions re-created from client-carried state
	histBackend     *obs.Histogram // decide loop of a frame that read the shared policy
	batches         *obs.Counter   // frames that read the shared policy
	batchLookups    *obs.Counter   // lookups those frames read from it
	batchRejected   *obs.Counter   // decides shed with ErrOverloaded

	ckptMu   sync.Mutex
	ckptTime time.Time // zero until a checkpoint is loaded or saved

	// Checkpoint *publication* serialization: the periodic learner
	// checkpoint and the drain-time final checkpoint write the same path;
	// ckptPubMu makes each write atomic with respect to the other and
	// ckptFinal makes the drain snapshot the last writer — a late periodic
	// tick can never clobber the final state the next incarnation hydrates
	// from. fs is the injectable syscall seam the ordering test uses.
	ckptPubMu sync.Mutex
	ckptFinal bool
	fs        fsHooks

	learner      *learner    // nil unless cfg.Learn.Enabled
	cohortLearn  cohortStats // learning-arm reward ledger (learning server only)
	cohortFrozen cohortStats // frozen-arm reward ledger
}

// cohortStats is a lock-free reward ledger for one A/B arm.
type cohortStats struct {
	rewards atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the reward sum, CAS-accumulated
}

func (c *cohortStats) add(v float64) {
	c.rewards.Add(1)
	for {
		old := c.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (c *cohortStats) mean() float64 {
	n := c.rewards.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(c.sumBits.Load()) / float64(n)
}

// noteRewardLocked routes one freshly applied (non-replayed) reward to the
// learner: cohort accounting plus, for learning-arm sessions with a
// complete transition pair, one Q-update sample per cluster. Caller holds
// sess.mu. A full queue drops the sample and counts it — learning is
// best-effort, serving is not allowed to block on it.
func (s *Server) noteRewardLocked(sess *Session, r float64) {
	if s.learner == nil {
		return
	}
	if sess.frozen {
		s.cohortFrozen.add(r)
		return
	}
	s.cohortLearn.add(r)
	h := sess.hist
	if !h.havePrev || !h.haveCur {
		return
	}
	for i, prev := range h.prev {
		t := core.Transition{
			Cluster:   i,
			State:     prev.state,
			Action:    prev.action,
			NextState: h.cur[i].state,
			Reward:    r,
		}
		if !s.learner.offer(t) {
			s.learner.dropped.Add(1)
		}
	}
}

// eventLogSinks are backends that report degradations into the server's
// event log once wired; *HWBackend implements it.
type eventLogSink interface {
	setEventLog(*obs.EventLog)
}

// New builds a server over model and backend. backend defaults to the
// software table walk when nil.
func New(model *Model, backend Backend, cfg Config) (*Server, error) {
	return newServer(model, backend, cfg, osHooks())
}

// newServer is New over the given checkpoint store hooks, in place before
// the learner can run its first periodic checkpoint.
func newServer(model *Model, backend Backend, cfg Config, fs fsHooks) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if backend == nil {
		backend = NewSWBackend(model)
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		model:   model,
		backend: backend,
		start:   time.Now(),
		handles: make(map[uint64]*Session),
		bin:     NewBinFront(reg, "serve", cfg.MaxBatch),
		reg:     reg,
		events:  obs.NewEventLog(256),
		fs:      fs,

		decisions:       reg.NewCounter("serve_decisions_total", "decide calls served"),
		lookupsServed:   reg.NewCounter("serve_lookups_total", "individual greedy table lookups resolved"),
		explorations:    reg.NewCounter("serve_explorations_total", "decisions taken by device-local exploration"),
		rewards:         reg.NewCounter("serve_rewards_total", "device-reported rewards recorded"),
		rewardsDeduped:  reg.NewCounter("serve_rewards_deduped_total", "reward retries answered from the per-session dedup ledger"),
		sessionsCreated: reg.NewCounter("serve_sessions_created_total", "device sessions opened"),
		sessionsClosed:  reg.NewCounter("serve_sessions_closed_total", "device sessions closed"),
		sessionsReaped:  reg.NewCounter("serve_sessions_reaped_total", "idle device sessions closed by the TTL reaper"),
		decidesDeduped:  reg.NewCounter("serve_decides_deduped_total", "decide retries answered from the per-session replay cache"),
		resumes:         reg.NewCounter("serve_resumes_total", "sessions re-created from client-carried resume state"),
		batches:         reg.NewCounter("serve_batches_total", "decide frames that read the shared policy"),
		batchLookups:    reg.NewCounter("serve_batch_lookups_total", "lookups read from the shared policy"),
		batchRejected:   reg.NewCounter("serve_batch_rejected_total", "decides shed with ErrOverloaded past the in-flight bound"),
		maxInflight:     4 * int64(cfg.MaxBatch),
		histBackend: reg.NewHistogram("serve_decide_stage_ns", stageHelp,
			obs.Label{Key: "stage", Value: "backend"}),
	}
	s.json = NewJSONFront(reg, "serve", s.openConn)
	reg.NewGaugeFunc("serve_decides_inflight", "decides admitted and not yet returned (bound: 4×MaxBatch)", func() float64 {
		return float64(s.inflight.Load())
	})
	reg.NewGaugeFunc("serve_sessions", "live device sessions", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.handles))
	})
	reg.NewGaugeFunc("serve_uptime_seconds", "seconds since server start (monotonic, clamped at 0)", func() float64 {
		return ageSeconds(s.start)
	})
	reg.NewGaugeFunc("serve_checkpoint_age_seconds", "seconds since the last checkpoint load/save; -1 when none exists", func() float64 {
		return s.checkpointAgeS()
	})
	reg.NewCounterFunc("serve_events_total", "structured runtime events recorded", s.events.Total)
	if sink, ok := backend.(eventLogSink); ok {
		sink.setEventLog(s.events)
	}
	if hb, ok := backend.(*HWBackend); ok {
		reg.NewCounterFunc("serve_hw_decisions_total", "lookups decided by the modeled accelerator", hb.decisions.Load)
		reg.NewCounterFunc("serve_hw_retries_total", "accelerator transaction retries", hb.retries.Load)
		reg.NewCounterFunc("serve_hw_degraded_total", "lookups degraded to the software tables", hb.degraded.Load)
	}
	reg.NewGaugeFunc("serve_batch_max_occupancy", "most shared-policy lookups read by one frame", func() float64 {
		return float64(s.maxOcc.Load())
	})
	if cfg.Learn.Enabled {
		sw, ok := backend.(*SWBackend)
		if !ok {
			return nil, fmt.Errorf("serve: online learning requires the software backend (swappable tables), not %q", backend.Name())
		}
		l, err := newLearner(s, sw, cfg.Learn)
		if err != nil {
			return nil, err
		}
		s.learner = l
		reg.NewGaugeFunc("serve_cohort_mean_reward", "mean device-reported reward, learning arm",
			s.cohortLearn.mean, obs.Label{Key: "cohort", Value: CohortLearning})
		reg.NewGaugeFunc("serve_cohort_mean_reward", "mean device-reported reward, frozen arm",
			s.cohortFrozen.mean, obs.Label{Key: "cohort", Value: CohortFrozen})
		reg.NewCounterFunc("serve_cohort_rewards_total", "rewards recorded, learning arm",
			s.cohortLearn.rewards.Load, obs.Label{Key: "cohort", Value: CohortLearning})
		reg.NewCounterFunc("serve_cohort_rewards_total", "rewards recorded, frozen arm",
			s.cohortFrozen.rewards.Load, obs.Label{Key: "cohort", Value: CohortFrozen})
		l.start()
	}
	if cfg.SessionTTL > 0 {
		s.reapQuit = make(chan struct{})
		s.reapWG.Add(1)
		go s.reapLoop(cfg.SessionTTL)
	}
	return s, nil
}

// Epoch returns this server incarnation's epoch.
func (s *Server) Epoch() uint32 { return s.cfg.Epoch }

// reapLoop closes sessions idle past the TTL, bounding the session map
// against clients that vanish without closing. It samples at TTL/4, so a
// session is reaped between 1× and ~1.25× its TTL after going idle.
func (s *Server) reapLoop(ttl time.Duration) {
	defer s.reapWG.Done()
	tick := ttl / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reapQuit:
			return
		case <-t.C:
		}
		cutoff := nanotime() - ttl.Nanoseconds()
		var expired []*Session
		s.mu.Lock()
		for h, sess := range s.handles {
			if sess.lastActive.Load() < cutoff {
				expired = append(expired, sess)
				delete(s.handles, h)
			}
		}
		s.mu.Unlock()
		for _, sess := range expired {
			s.finishClose(sess)
			s.sessionsReaped.Add(1)
		}
	}
}

// Registry exposes the server's metrics registry, so binaries can add
// their own series and dump the exposition (pmserve's SIGUSR1 handler).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Events exposes the server's bounded event log.
func (s *Server) Events() *obs.EventLog { return s.events }

// ageSeconds returns the elapsed seconds since t, clamped at 0. Captures
// taken with time.Now carry a monotonic reading and are immune to
// wall-clock steps; the clamp covers timestamps that lost it (decoded,
// Round(0)-stripped, or truly from the future after a backwards NTP
// step), so age metrics can never go negative and break alert rules.
func ageSeconds(t time.Time) float64 {
	s := time.Since(t).Seconds()
	if s < 0 {
		return 0
	}
	return s
}

// checkpointAgeS returns the clamped checkpoint age, -1 when no
// checkpoint was ever loaded or saved.
func (s *Server) checkpointAgeS() float64 {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.ckptTime.IsZero() {
		return -1
	}
	return ageSeconds(s.ckptTime)
}

// Model returns the served model.
func (s *Server) Model() *Model { return s.model }

// Close stops the learner and the reaper, tears down every
// binary-protocol listener and connection, and waits for the connection
// goroutines. Decides already admitted finish; any decide after Close
// fails with ErrServerClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	s.mu.Unlock()
	if s.learner != nil {
		s.learner.close()
	}
	if s.reapQuit != nil {
		close(s.reapQuit)
		s.reapWG.Wait()
	}
	s.bin.Close()
}

// admit lets one decide in: it fails with ErrServerClosed after Close and
// with ErrOverloaded when maxInflight decides are already in flight,
// counting the shed. An admitted decide releases its slot with
// inflight.Add(-1) when it returns.
func (s *Server) admit() error {
	if s.closed.Load() {
		return ErrServerClosed
	}
	for {
		n := s.inflight.Load()
		if n >= s.maxInflight {
			s.batchRejected.Add(1)
			return ErrOverloaded
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			return nil
		}
	}
}

// noteFrame records one frame that read the shared policy: the batch
// counters (one entry per frame), the backend stage and the decide-time
// average behind the backoff hint.
func (s *Server) noteFrame(lookups int, loop time.Duration) {
	s.histBackend.Observe(loop.Nanoseconds())
	s.observeDecide(loop)
	s.batches.Add(1)
	occ := uint64(lookups)
	s.batchLookups.Add(occ)
	for {
		cur := s.maxOcc.Load()
		if occ <= cur || s.maxOcc.CompareAndSwap(cur, occ) {
			return
		}
	}
}

// observeDecide feeds one frame's decide-loop time to the EWMA.
func (s *Server) observeDecide(d time.Duration) {
	old := s.ewmaDecideNs.Load()
	s.ewmaDecideNs.Store(old - old/8 + d.Nanoseconds()/8)
}

// backoffHintMs is the retry hint carried on overload answers
// (Retry-After / the wire error frame's backoff field): ~2× the recent
// decide time, clamped to [5ms, 1s]. The floor covers a shed before any
// decide was timed, and in practice every shed: a decide takes
// microseconds, so the floor spaces retries well past the time the
// in-flight decides need to return.
func (s *Server) backoffHintMs() uint32 {
	ms := 2 * s.ewmaDecideNs.Load() / int64(time.Millisecond)
	return uint32(min(max(ms, 5), 1000))
}

// Drain is the graceful half of shutdown, run on SIGTERM before Close:
// stop accepting new binary connections, give live connections a grace
// window to finish the frames already in flight (their reads are
// deadline-nudged — a fully received request is still served and its
// response flushed; a partially received one was never accepted and the
// client's retry lands on the next incarnation), wait for the connections
// to wind down, then publish a final checkpoint so the next incarnation
// starts from the exact frozen policy. HTTP draining belongs to
// http.Server.Shutdown and composes with this. Drain does not Close: the
// caller does, after its HTTP drain completes.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed.Load() || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// The grace deadline bounds the wait for the connections to flush and
	// exit; the ctx is a harder stop.
	if err := s.bin.Drain(ctx, s.cfg.DrainGrace); err != nil {
		return err
	}

	// Stop the learner before the final checkpoint: its goroutine applies
	// everything still queued and exits, so the drain snapshot carries every
	// reward the server acked — and cannot race a periodic checkpoint tick,
	// whose writes serialize behind publishCheckpoint's mutex anyway.
	if s.learner != nil {
		s.learner.close()
	}
	if s.cfg.CheckpointPath != "" {
		if err := s.publishCheckpoint(true); err != nil {
			return fmt.Errorf("serve: drain checkpoint: %w", err)
		}
	}
	return nil
}

// publishCheckpoint persists the current policy — the learner's live
// tables when learning, the frozen model otherwise — to cfg.CheckpointPath.
// Publications serialize on ckptPubMu so the periodic learner tick and the
// drain-time final write can never interleave on the store; final marks
// the drain snapshot as the last writer, turning any straggling periodic
// publication into a no-op.
func (s *Server) publishCheckpoint(final bool) error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	s.ckptPubMu.Lock()
	defer s.ckptPubMu.Unlock()
	if s.ckptFinal {
		return nil
	}
	if final {
		s.ckptFinal = true
	}
	var snap core.Snapshot
	if s.learner != nil {
		snap = s.learner.snapshot()
	} else {
		snap = s.model.Snapshot()
	}
	if _, err := saveCheckpoint(s.cfg.CheckpointPath, snap, s.fs); err != nil {
		return err
	}
	s.MarkCheckpoint(time.Now())
	return nil
}

// MarkCheckpoint records a checkpoint load/save instant for the
// checkpoint-age metric. Prefer passing a fresh time.Now() — it carries a
// monotonic reading, so the age survives wall-clock steps; timestamps
// without one are still safe because every age read clamps at 0.
func (s *Server) MarkCheckpoint(at time.Time) {
	s.ckptMu.Lock()
	s.ckptTime = at
	s.ckptMu.Unlock()
}

// CreateSession registers a new device session.
func (s *Server) CreateSession(opts SessionOptions) (*Session, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrServerClosed
	}
	s.nextID++
	sess := &Session{
		id:         sessionID(s.nextID),
		handle:     s.nextID,
		srv:        s,
		explorer:   newExplorer(opts),
		prevDemand: make([]float64, s.model.Clusters()),
	}
	s.initLearnState(sess, opts.Cohort)
	sess.lastActive.Store(nanotime())
	s.handles[sess.handle] = sess
	s.sessionsCreated.Add(1)
	return sess, nil
}

// initLearnState applies the session's cohort and, on a learning server,
// allocates the learner's history for learning-arm sessions. Caller holds
// s.mu.
func (s *Server) initLearnState(sess *Session, cohort string) {
	sess.frozen = cohort == CohortFrozen
	if s.learner != nil && !sess.frozen {
		sess.hist = newLearnHistory(s.model.Clusters())
	}
}

// ResumeState is everything a client must carry to re-create a session on
// a fresh server incarnation exactly where the old one left off: the
// creation options, the evolved exploration state (current ε and the raw
// RNG state), the request sequence with its last decision (so an in-flight
// retry still deduplicates across the restart), the demand-trend history,
// and the ledger.
type ResumeState struct {
	Options    SessionOptions
	Epsilon    float64   // current (decayed) exploration rate
	Rng        [4]uint64 // exploration RNG state; all-zero → reseed from Options.Seed
	Seq        uint64    // last served sequence number
	LastLevels []int     // decision for Seq, the replay-cache seed
	PrevDemand []float64 // per-cluster demand-trend history
	Decisions  uint64
	Rewards    uint64
	RewardSum  float64
}

// ResumeSession re-creates a session from client-carried state. The
// session gets a fresh handle/id in this incarnation's epoch — handles
// are never trusted across epochs — but decides continue the sequence,
// the RNG stream, and the demand history exactly where the lost session
// stopped, so the device's decision trace is indistinguishable from one
// served by an immortal process.
func (s *Server) ResumeSession(st ResumeState) (*Session, error) {
	if err := st.Options.validate(); err != nil {
		return nil, err
	}
	if st.Epsilon < 0 || st.Epsilon > 1 {
		return nil, fmt.Errorf("%w: resume epsilon %v out of [0,1]", ErrBadRequest, st.Epsilon)
	}
	clusters := s.model.Clusters()
	if len(st.PrevDemand) != clusters {
		return nil, fmt.Errorf("%w: resume carries %d demand entries for %d clusters", ErrBadRequest, len(st.PrevDemand), clusters)
	}
	if (st.Seq > 0 || len(st.LastLevels) > 0) && len(st.LastLevels) != clusters {
		return nil, fmt.Errorf("%w: resume carries %d last levels for %d clusters", ErrBadRequest, len(st.LastLevels), clusters)
	}
	for i, lvl := range st.LastLevels {
		if lvl < 0 || lvl >= s.model.levels[i] {
			return nil, fmt.Errorf("%w: resume cluster %d level %d out of [0,%d)", ErrBadRequest, i, lvl, s.model.levels[i])
		}
	}
	var r *rng.Rand
	if st.Rng == ([4]uint64{}) {
		r = rng.New(st.Options.Seed)
	} else {
		var err error
		if r, err = rng.NewFromState(st.Rng); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrServerClosed
	}
	s.nextID++
	sess := &Session{
		id:         sessionID(s.nextID),
		handle:     s.nextID,
		srv:        s,
		explorer:   explorer{eps: st.Epsilon, epsMin: st.Options.EpsilonMin, epsDecay: st.Options.EpsilonDecay, r: *r},
		prevDemand: append([]float64(nil), st.PrevDemand...),
		lastSeq:    st.Seq,
		lastLevels: append([]int(nil), st.LastLevels...),
		decisions:  st.Decisions,
		rewards:    st.Rewards,
		rewardSum:  st.RewardSum,
		// The client's acked-reward count doubles as its reward sequence
		// cursor, so an in-flight reward retry still deduplicates across
		// the restart — same trick as Seq/LastLevels for decides.
		lastRewardSeq: st.Rewards,
	}
	s.initLearnState(sess, st.Options.Cohort)
	// Resume state carries only the last period's decision, so the replay
	// window re-opens as a one-period frame at Seq regardless of how many
	// periods the original frame bundled.
	if st.Seq > 0 {
		sess.lastPeriods = 1
	}
	sess.lastActive.Store(nanotime())
	s.handles[sess.handle] = sess
	s.sessionsCreated.Add(1)
	s.resumes.Add(1)
	return sess, nil
}

// SessionByHandle looks a live session up by its binary-protocol handle.
// The error is the bare sentinel — no formatting — so the binary hot path
// stays allocation-free even when a stale handle arrives.
func (s *Server) SessionByHandle(h uint64) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.handles[h]
	if !ok {
		return nil, ErrNoSession
	}
	return sess, nil
}

// SessionByHandleEpoch is the epoch-checked lookup for resilient clients.
// epoch 0 is the legacy unchecked path. A non-zero epoch that does not
// match this incarnation — or a handle this incarnation never minted —
// fails with ErrUnknownSession: the session is resumable, and the handle
// must not be served even if it happens to collide with a live one,
// because it was minted by a different process.
func (s *Server) SessionByHandleEpoch(h uint64, epoch uint32) (*Session, error) {
	if epoch == 0 {
		return s.SessionByHandle(h)
	}
	if epoch != s.cfg.Epoch {
		return nil, ErrUnknownSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.handles[h]
	if !ok {
		return nil, ErrUnknownSession
	}
	return sess, nil
}

// CloseSessionByHandle ends a session addressed by its binary handle.
func (s *Server) CloseSessionByHandle(h uint64) (SessionStats, error) {
	s.mu.Lock()
	sess, ok := s.handles[h]
	if ok {
		delete(s.handles, h)
	}
	s.mu.Unlock()
	if !ok {
		return SessionStats{}, ErrNoSession
	}
	return s.finishClose(sess), nil
}

func (s *Server) finishClose(sess *Session) SessionStats {
	sess.mu.Lock()
	sess.closed = true
	st := sess.statsLocked()
	sess.mu.Unlock()
	s.sessionsClosed.Add(1)
	return st
}

// HWStats reports the hardware backend's health ledger in Metrics; nil for
// the software backend.
type HWStats struct {
	Decisions uint64  `json:"decisions"`
	Retries   uint64  `json:"retries"`
	Degraded  uint64  `json:"degraded"`
	MeanLatNs float64 `json:"mean_latency_ns"`
}

// Metrics is the server's observable state, served at /metrics.
type Metrics struct {
	UptimeS            float64     `json:"uptime_s"`
	Backend            string      `json:"backend"`
	Clusters           int         `json:"clusters"`
	Sessions           int         `json:"sessions"`
	SessionsCreated    uint64      `json:"sessions_created"`
	SessionsClosed     uint64      `json:"sessions_closed"`
	SessionsReaped     uint64      `json:"sessions_reaped"`
	Resumes            uint64      `json:"resumes"`
	Decisions          uint64      `json:"decisions"`
	DecidesDeduped     uint64      `json:"decides_deduped"`
	LookupsServed      uint64      `json:"lookups_served"`
	Explorations       uint64      `json:"explorations"`
	Rewards            uint64      `json:"rewards"`
	RewardsDeduped     uint64      `json:"rewards_deduped"`
	Batches            uint64      `json:"batches"`
	BatchRejected      uint64      `json:"batch_rejected"`
	DecidesInflight    int64       `json:"decides_inflight"`
	MeanBatchOccupancy float64     `json:"mean_batch_occupancy"`
	MaxBatchOccupancy  uint64      `json:"max_batch_occupancy"`
	HTTPErrors         uint64      `json:"http_errors"`
	BinConnections     uint64      `json:"bin_connections"`
	BinFrames          uint64      `json:"bin_frames"`
	BinErrors          uint64      `json:"bin_errors"`
	CheckpointAgeS     float64     `json:"checkpoint_age_s"` // -1 when no checkpoint exists
	HW                 *HWStats    `json:"hw,omitempty"`
	Learn              *LearnStats `json:"learn,omitempty"` // nil unless learning is enabled
}

// MetricsSnapshot assembles the current metrics. Ages are monotonic-safe
// and clamped at 0 (CheckpointAgeS stays -1 when no checkpoint exists),
// so a backwards wall-clock step can never produce a negative age.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	live := len(s.handles)
	s.mu.Unlock()
	batches, lookups := s.batches.Load(), s.batchLookups.Load()
	m := Metrics{
		UptimeS:           ageSeconds(s.start),
		Backend:           s.backend.Name(),
		Clusters:          s.model.Clusters(),
		Sessions:          live,
		SessionsCreated:   s.sessionsCreated.Load(),
		SessionsClosed:    s.sessionsClosed.Load(),
		SessionsReaped:    s.sessionsReaped.Load(),
		Resumes:           s.resumes.Load(),
		Decisions:         s.decisions.Load(),
		DecidesDeduped:    s.decidesDeduped.Load(),
		LookupsServed:     s.lookupsServed.Load(),
		Explorations:      s.explorations.Load(),
		Rewards:           s.rewards.Load(),
		RewardsDeduped:    s.rewardsDeduped.Load(),
		Batches:           batches,
		BatchRejected:     s.batchRejected.Load(),
		DecidesInflight:   s.inflight.Load(),
		MaxBatchOccupancy: s.maxOcc.Load(),
		HTTPErrors:        s.json.errs.Load(),
		BinConnections:    s.bin.connsTotal.Load(),
		BinFrames:         s.bin.frames.Load(),
		BinErrors:         s.bin.errs.Load(),
		CheckpointAgeS:    s.checkpointAgeS(),
	}
	if batches > 0 {
		m.MeanBatchOccupancy = float64(lookups) / float64(batches)
	}
	if hb, ok := s.backend.(*HWBackend); ok {
		m.HW = hb.statsSnapshot()
	}
	if s.learner != nil {
		m.Learn = s.learner.statsSnapshot(s)
	}
	return m
}
