// Online learning in the serving path. The serving tier hosted a frozen
// policy: rewards fed a ledger and nothing else. The learner closes the
// loop the way the paper's companion online-learning line of work does —
// device-reported rewards drive live TD updates while serving:
//
//   - each reward is paired with the reporting session's last two decided
//     (state, action) periods into one core.Transition per cluster, and
//     every transition is applied to a shadow core.Policy loaded from the
//     served model, on the goroutine serving the reward and before the
//     reward is acked. Policy.Learn runs the TD step training runs, under
//     the served config's algorithm, learning rate and discount:
//     Q-learning by default. Learning is lossless, and exactly-once with
//     the reward dedup;
//   - every SwapEvery updates the shadow policy's greedy tables are
//     written into a learner-owned arena and published RCU-style: one
//     atomic pointer swap in the server's SWBackend. Decide frames pin the
//     live model once each and never take a lock; each pinned model counts
//     its readers. A retired arena is recycled for a later publication
//     only once its reader count is zero (the N-reader grace rule, see
//     SWBackend), so steady-state publication allocates nothing;
//   - the learned state is periodically published through the existing
//     checkpoint store (and finally at drain), so restarts and new shards
//     hydrate what was learned.
package serve

import (
	"fmt"
	"math"
	"sync"
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
	// SwapEvery is how many applied updates trigger an RCU table
	// publication, made once the reward that reaches it has applied all
	// its updates (default 256).
	SwapEvery int
	// CheckpointEvery, when positive, periodically publishes the learned
	// tables through the server's checkpoint store (needs
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

// learner applies reward-derived transitions to a shadow core.Policy and
// publishes the result by swapping recycled arenas. Reward callers apply
// their transitions under mu (Server.noteRewardLocked), so the shadow
// policy sees every reward's transitions together and in one order.
type learner struct {
	srv *Server
	cfg LearnConfig

	mu      sync.Mutex
	pol     *core.Policy // shadow policy: the served tables plus every applied update
	pending int          // updates applied since the last publication
	// Publication arenas, guarded by mu. published is the model this
	// learner last swapped in (nil before the first publication). spare is
	// a model it retired, safe to rewrite once no reader holds it; nil
	// when there is none.
	published, spare *Model

	updates  *obs.Counter   // transitions applied to the shadow policy
	rejected *obs.Counter   // transitions rejected by Policy.Learn
	swaps    *obs.Counter   // RCU table publications
	tdAbs    *obs.Histogram // |TD error| per update, in 1e-6 units

	quit chan struct{} // nil unless the checkpoint ticker runs
	wg   sync.WaitGroup
}

func newLearner(s *Server, cfg LearnConfig) (*learner, error) {
	cfg = cfg.withDefaults()
	pol, err := core.PolicyFromSnapshot(s.model.cfg, s.model.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("serve: building learner: %w", err)
	}
	l := &learner{
		srv: s,
		cfg: cfg,
		pol: pol,

		updates:  s.reg.NewCounter("learn_updates_total", "Q-table updates applied by the online learner"),
		rejected: s.reg.NewCounter("learn_rejected_total", "learning samples rejected by the shadow policy"),
		swaps:    s.reg.NewCounter("learn_swaps_total", "RCU table publications by the online learner"),
		tdAbs:    s.reg.NewHistogram("learn_td_abs", "absolute TD error per applied update, in 1e-6 units"),
	}
	// The version is the swap count; the fleet benchmark reads it by this
	// name.
	s.reg.NewGaugeFunc("serve_policy_version", "served policy version; 0 is the construction-time model", func() float64 {
		return float64(l.swaps.Load())
	})
	return l, nil
}

// checkpointLoop publishes the learned tables through the checkpoint
// store every CheckpointEvery until close. publishCheckpoint records a
// failure in the event log, and the next tick tries again; after the
// drain's final checkpoint a tick writes nothing.
func (l *learner) checkpointLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
		}
		_, _ = l.srv.publishCheckpoint(false)
	}
}

func (l *learner) applyLocked(t core.Transition) {
	td, err := l.pol.Learn(t)
	if err != nil {
		// Sessions validate states and actions before they decide, so this
		// is defense in depth: count it, never let one sample stop learning.
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
}

// snapshot exports the learned tables for checkpointing.
func (l *learner) snapshot() core.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap, err := l.pol.Snapshot()
	if err != nil {
		panic(err) // the shadow policy has its agents from construction
	}
	return snap
}

// close stops the checkpoint ticker, if one runs. Server.Close calls it
// once.
func (l *learner) close() {
	if l.quit != nil {
		close(l.quit)
		l.wg.Wait()
	}
}

// LearnSnapshot exports the learner's current tables; ok is false when
// learning is disabled.
func (s *Server) LearnSnapshot() (snap core.Snapshot, ok bool) {
	if s.learner == nil {
		return core.Snapshot{}, false
	}
	return s.learner.snapshot(), true
}
