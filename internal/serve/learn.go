// Online learning in the serving path. The serving tier hosted a frozen
// policy: rewards fed a ledger and nothing else. The learner closes the
// loop the way the paper's companion online-learning line of work does —
// device-reported rewards drive live TD updates while serving:
//
//   - reward reports are paired with the reporting session's last two
//     decided (state, action) periods into core.Transitions and pushed
//     onto a bounded lock-free MPSC ring (a full ring drops the sample —
//     learning is best-effort, the serving path never blocks on it);
//   - a single consumer drains the ring into a shadow core.Policy loaded
//     from the served model, off every decide hot path. Policy.Learn runs
//     the TD step training runs, under the served config's algorithm,
//     learning rate and discount: Q-learning by default;
//   - every SwapEvery updates the shadow policy's greedy tables are
//     written into a learner-owned arena and published RCU-style: one
//     atomic pointer swap in the server's SWBackend plus a version bump.
//     Decide frames pin the live model once each and never take a lock;
//     each pinned model counts its readers. A retired arena is recycled
//     for a later publication only once its reader count is zero (the
//     N-reader grace rule, see SWBackend), so steady-state publication
//     allocates nothing;
//   - the learned state is periodically published through the existing
//     checkpoint store (and finally at drain), so restarts and new shards
//     hydrate what was learned;
//   - Manual mode runs no goroutine: the caller drives Server.LearnTick
//     at explicit points, which makes a training-while-serving run
//     deterministic end to end — the seeded replay mode RunLearn uses.
package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/core"
	"rlpm/internal/obs"
)

// LearnConfig parameterizes the online learner. The zero value disables
// learning entirely. The TD rule, learning rate and discount are the
// served model's config (core.Config Algorithm, Alpha and Gamma).
type LearnConfig struct {
	// Enabled turns the learner on: learned tables are published by
	// swapping arenas behind the server's live-model pointer.
	Enabled bool
	// Manual suppresses the background drain goroutine; updates apply only
	// when the caller invokes Server.LearnTick. This is the seeded replay
	// mode: with a fixed tick schedule, a training-while-serving run is
	// bit-reproducible.
	Manual bool
	// SwapEvery is how many applied updates trigger an RCU table
	// publication (default 256).
	SwapEvery int
	// CheckpointEvery, when positive, periodically publishes the learned
	// tables through the server's checkpoint store (async mode only; needs
	// Config.CheckpointPath).
	CheckpointEvery time.Duration
}

func (c LearnConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.SwapEvery < 0 {
		return fmt.Errorf("serve: negative learn SwapEvery %d", c.SwapEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("serve: negative learn CheckpointEvery %v", c.CheckpointEvery)
	}
	return nil
}

func (c LearnConfig) withDefaults() LearnConfig {
	if c.SwapEvery == 0 {
		c.SwapEvery = 256
	}
	return c
}

// learnQueueCap bounds the transition ring. When full, new samples are
// dropped and counted.
const learnQueueCap = 4096

// applyChunk bounds how many transitions the async consumer applies
// between shutdown/checkpoint checks.
const applyChunk = 256

// learnIdlePoll is the async consumer's sleep when the ring is empty.
const learnIdlePoll = 200 * time.Microsecond

// learner drains reward-derived transitions into a shadow core.Policy and
// publishes the result by swapping recycled arenas. Producers are session
// goroutines (via Server.noteRewardLocked); the consumer is either the
// background goroutine (async mode) or LearnTick callers (manual mode) —
// applyMu serializes them, so the ring's single-consumer contract holds in
// both modes.
type learner struct {
	srv  *Server
	cfg  LearnConfig
	ring *tranRing

	applyMu sync.Mutex
	pol     *core.Policy // shadow policy: the served tables plus every applied update
	pending int          // updates applied since the last publication
	// Publication arenas, guarded by applyMu. published is the model this
	// learner last swapped in (nil before the first publication). spare is
	// a model it retired, safe to rewrite once no reader holds it; nil
	// when there is none.
	published, spare *Model

	version atomic.Uint64

	updates  *obs.Counter   // transitions applied to the shadow policy
	dropped  *obs.Counter   // transitions dropped on a full ring
	rejected *obs.Counter   // transitions rejected by Policy.Learn
	swaps    *obs.Counter   // RCU table publications
	tdAbs    *obs.Histogram // |TD error| per update, in 1e-6 units

	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

func newLearner(s *Server, cfg LearnConfig) (*learner, error) {
	cfg = cfg.withDefaults()
	pol, err := core.PolicyFromSnapshot(s.model.cfg, s.model.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("serve: building learner: %w", err)
	}
	l := &learner{
		srv:  s,
		cfg:  cfg,
		ring: newTranRing(learnQueueCap),
		pol:  pol,
		quit: make(chan struct{}),

		updates:  s.reg.NewCounter("learn_updates_total", "Q-table updates applied by the online learner"),
		dropped:  s.reg.NewCounter("learn_dropped_total", "learning samples dropped on a full transition queue"),
		rejected: s.reg.NewCounter("learn_rejected_total", "learning samples rejected by the shadow policy"),
		swaps:    s.reg.NewCounter("learn_swaps_total", "RCU table publications by the online learner"),
		tdAbs:    s.reg.NewHistogram("learn_td_abs", "absolute TD error per applied update, in 1e-6 units"),
	}
	s.reg.NewGaugeFunc("serve_policy_version", "served policy version; 0 is the construction-time model", func() float64 {
		return float64(l.version.Load())
	})
	return l, nil
}

// start launches the background consumer (async mode only); split from
// newLearner so the server finishes wiring before the goroutine runs.
func (l *learner) start() {
	if l.cfg.Manual {
		return
	}
	l.wg.Add(1)
	go l.run()
}

// offer enqueues one transition; false when the ring is full.
func (l *learner) offer(t core.Transition) bool { return l.ring.Push(t) }

func (l *learner) run() {
	defer l.wg.Done()
	var ckpt <-chan time.Time
	if l.cfg.CheckpointEvery > 0 {
		t := time.NewTicker(l.cfg.CheckpointEvery)
		defer t.Stop()
		ckpt = t.C
	}
	// One idle timer for the goroutine's lifetime. go.mod's go 1.22 keeps
	// the pre-1.23 timer semantics, where a fired timer's value stays in
	// its channel across Reset, so every Reset follows Stop and a drain.
	idle := time.NewTimer(learnIdlePoll)
	defer idle.Stop()
	for {
		n := l.apply(applyChunk)
		select {
		case <-l.quit:
			// Final drain: every acked reward still queued lands in the
			// tables before the drain-time checkpoint snapshots them.
			l.tick()
			return
		case <-ckpt:
			l.checkpoint()
		default:
		}
		if n == 0 {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(learnIdlePoll)
			select {
			case <-l.quit:
				l.tick()
				return
			case <-ckpt:
				l.checkpoint()
			case <-idle.C:
			}
		}
	}
}

// checkpoint is the periodic publication of the learned tables. A failure
// is recorded in the event log; the next tick tries again.
func (l *learner) checkpoint() {
	if err := l.srv.publishCheckpoint(false); err != nil {
		l.srv.events.Addf("checkpoint", "periodic learner checkpoint to %s failed: %v", l.srv.cfg.CheckpointPath, err)
	}
}

// apply drains up to max transitions, publishing every SwapEvery updates.
func (l *learner) apply(max int) int {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	n := 0
	for n < max {
		t, ok := l.ring.Pop()
		if !ok {
			break
		}
		l.applyOneLocked(t)
		n++
		if l.pending >= l.cfg.SwapEvery {
			l.publishLocked()
		}
	}
	return n
}

// tick drains the ring completely and publishes any pending updates —
// the manual-mode step, also used as the shutdown flush.
func (l *learner) tick() int {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	n := 0
	for {
		t, ok := l.ring.Pop()
		if !ok {
			break
		}
		l.applyOneLocked(t)
		n++
	}
	if l.pending > 0 {
		l.publishLocked()
	}
	return n
}

func (l *learner) applyOneLocked(t core.Transition) {
	td, err := l.pol.Learn(t)
	if err != nil {
		// Sessions validate states and actions before queueing, so this is
		// defense in depth: count it, never let one sample stop learning.
		l.rejected.Add(1)
		return
	}
	l.updates.Add(1)
	l.pending++
	l.tdAbs.Observe(int64(math.Abs(td) * 1e6))
}

// publishLocked writes the shadow policy's greedy tables into a
// learner-owned model and swaps it into the server's SWBackend — one
// atomic swap, no reader locks. The model written is the spare once its
// reader count is zero: no decide frame holds it, and any frame that
// loaded it before it was retired finds on its recheck that it is no
// longer live. Otherwise (no spare yet, or a frame still holds it) it is a
// fresh arena; publication never waits for readers. The retired model becomes the next spare,
// unless a spare still held keeps the slot (its holder is about to
// release it; the retired model is dropped instead) or the retired model
// is the construction model, which frozen sessions and Server.Model read
// for the server's lifetime.
func (l *learner) publishLocked() {
	next := l.spare
	if next != nil && next.readers.Load() == 0 {
		l.spare = nil
	} else {
		base := l.srv.model
		next = &Model{cfg: base.cfg, levels: base.levels, flat: base.flat.NewLike()}
	}
	l.pol.TablesInto(next.flat)
	retired := l.srv.backend.live.Swap(next)
	if l.spare == nil && retired == l.published {
		l.spare = retired
	}
	l.published = next
	l.pending = 0
	l.swaps.Add(1)
	l.version.Add(1)
}

// snapshot exports the learned tables for checkpointing.
func (l *learner) snapshot() core.Snapshot {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	snap, err := l.pol.Snapshot()
	if err != nil {
		panic(err) // the shadow policy has its agents from construction
	}
	return snap
}

// close stops the consumer and flushes the queue; idempotent. After close
// the ring may still accept pushes (sessions can outlive the learner
// during shutdown) — they are simply never drained.
func (l *learner) close() {
	l.closeOnce.Do(func() {
		close(l.quit)
		l.wg.Wait()
		if l.cfg.Manual {
			l.tick()
		}
	})
}

// LearnStats is the learner's observable state inside Metrics.
type LearnStats struct {
	Updates            uint64  `json:"updates"`
	Dropped            uint64  `json:"dropped"`
	Rejected           uint64  `json:"rejected"`
	Swaps              uint64  `json:"swaps"`
	PolicyVersion      uint64  `json:"policy_version"`
	RewardsLearning    uint64  `json:"rewards_learning"`
	RewardsFrozen      uint64  `json:"rewards_frozen"`
	MeanRewardLearning float64 `json:"mean_reward_learning"`
	MeanRewardFrozen   float64 `json:"mean_reward_frozen"`
}

func (l *learner) statsSnapshot(s *Server) *LearnStats {
	return &LearnStats{
		Updates:            l.updates.Load(),
		Dropped:            l.dropped.Load(),
		Rejected:           l.rejected.Load(),
		Swaps:              l.swaps.Load(),
		PolicyVersion:      l.version.Load(),
		RewardsLearning:    s.cohortLearn.rewards.Load(),
		RewardsFrozen:      s.cohortFrozen.rewards.Load(),
		MeanRewardLearning: s.cohortLearn.mean(),
		MeanRewardFrozen:   s.cohortFrozen.mean(),
	}
}

// LearnTick drains every queued learning sample and publishes the result,
// synchronously on the caller's goroutine — the manual-mode step. Returns
// the number of transitions applied; 0 when learning is off or async.
func (s *Server) LearnTick() int {
	if s.learner == nil || !s.learner.cfg.Manual {
		return 0
	}
	return s.learner.tick()
}

// PolicyVersion returns the served policy version: 0 until the learner
// first publishes, then incremented per RCU swap.
func (s *Server) PolicyVersion() uint64 {
	if s.learner == nil {
		return 0
	}
	return s.learner.version.Load()
}

// LearnSnapshot exports the learner's current tables; ok is false when
// learning is disabled.
func (s *Server) LearnSnapshot() (snap core.Snapshot, ok bool) {
	if s.learner == nil {
		return core.Snapshot{}, false
	}
	return s.learner.snapshot(), true
}

// tranRing is the learner's bounded lock-free MPSC transition queue — the
// Vyukov bounded-MPMC design specialized to many producers and one
// consumer, carrying core.Transition by value so the reward path enqueues
// without allocating. Each slot carries a sequence number that encodes its
// state machine:
//
//	seq == pos          free, a producer may claim position pos
//	seq == pos+1        full, the consumer may take position pos
//	seq <  pos          still holds the previous lap's item → ring is full
//
// Producers are session goroutines; they claim a position by CAS on tail,
// write the slot, then publish by storing seq = pos+1. Consumers serialize
// on the learner's applyMu, which preserves the single-consumer contract
// on head; the consumer recycles a slot by storing seq = pos+len.
type tranRing struct {
	mask  uint64
	slots []tranSlot
	tail  atomic.Uint64
	head  uint64 // guarded by learner.applyMu
}

type tranSlot struct {
	seq atomic.Uint64
	t   core.Transition
}

func newTranRing(capacity int) *tranRing {
	n := 8
	for n < capacity {
		n <<= 1
	}
	r := &tranRing{mask: uint64(n - 1), slots: make([]tranSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Push enqueues t, returning false immediately when the ring is full.
// Safe for concurrent producers.
func (r *tranRing) Push(t core.Transition) bool {
	for {
		pos := r.tail.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		if seq == pos {
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.t = t
				slot.seq.Store(pos + 1)
				return true
			}
			continue
		}
		if seq < pos {
			return false // consumer a full lap behind: ring is full
		}
	}
}

// Pop dequeues the oldest transition. Single consumer only (applyMu).
func (r *tranRing) Pop() (core.Transition, bool) {
	slot := &r.slots[r.head&r.mask]
	if slot.seq.Load() != r.head+1 {
		return core.Transition{}, false
	}
	t := slot.t
	slot.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	return t, true
}
