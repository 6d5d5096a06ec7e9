// Incremental update API: the serving tier's half of online learning.
//
// Training (internal/core/train.go, Policy/Agent) owns the full
// observe→reward→update loop; a serving learner cannot reuse it because
// the serving path has already split that loop apart — devices encode
// observations into decide frames, the server answers greedy actions, and
// rewards arrive later, batched and out of band. TDUpdater is the piece
// that remains once selection is elsewhere: a pair of Q-tables plus the
// exact Double-Q TD step Agent.Step applies, driven by explicit
// Transitions instead of an observation stream. It is single-goroutine by
// design (the serve learner is the only writer); publication to readers
// happens by writing the mean table into a learner-owned FlatTables arena
// (MeanInto) and swapping that arena in, never by sharing these tables.
package core

import (
	"fmt"
	"math"

	"rlpm/internal/rng"
)

// Transition is one (s, a, r, s') learning sample for one cluster agent,
// as reconstructed by the serving tier from a device's decide history and
// its reward report.
type Transition struct {
	Cluster   int
	State     int
	Action    int
	NextState int
	Reward    float64
}

// TDUpdater applies Double Q-learning TD steps to a shadow copy of a
// served policy's tables. Both tables start from the snapshot (a
// checkpoint stores the mean table, so q = q2 = mean at hydration — the
// same convention Agent.LoadTable uses), and the update rule mirrors
// Agent.Step's DoubleQ branch: a fair coin from the updater's own seeded
// stream picks the table to update, the other provides the bootstrap.
type TDUpdater struct {
	state   StateConfig
	levels  []int
	q       [][][]float64 // q[cluster][state][action]
	q2      [][][]float64
	alpha   float64
	gamma   float64
	r       *rng.Rand
	applied uint64
}

// NewTDUpdater builds an updater over snap's tables. alpha/gamma of 0
// select cfg's values; seed drives the Double-Q coin (the whole point of
// seeding it is the serve tier's deterministic replay mode).
func NewTDUpdater(cfg Config, snap Snapshot, seed uint64, alpha, gamma float64) (*TDUpdater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap.State != cfg.State {
		return nil, fmt.Errorf("core: snapshot state config %+v != config %+v", snap.State, cfg.State)
	}
	if len(snap.Tables) == 0 {
		return nil, fmt.Errorf("core: snapshot has no tables")
	}
	if alpha == 0 {
		alpha = cfg.Alpha
	}
	if gamma == 0 {
		gamma = cfg.Gamma
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha %v out of (0,1]", alpha)
	}
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("core: gamma %v out of [0,1)", gamma)
	}
	u := &TDUpdater{
		state: cfg.State,
		alpha: alpha,
		gamma: gamma,
		r:     rng.New(seed),
	}
	for c, tbl := range snap.Tables {
		if len(tbl) == 0 || len(tbl[0]) == 0 {
			return nil, fmt.Errorf("core: cluster %d: empty table", c)
		}
		actions := len(tbl[0])
		if cfg.State.States(actions) != len(tbl) {
			return nil, fmt.Errorf("core: cluster %d: %d states for %d actions, config wants %d",
				c, len(tbl), actions, cfg.State.States(actions))
		}
		q := make([][]float64, len(tbl))
		q2 := make([][]float64, len(tbl))
		for s, row := range tbl {
			if len(row) != actions {
				return nil, fmt.Errorf("core: cluster %d: ragged row %d", c, s)
			}
			q[s] = append([]float64(nil), row...)
			q2[s] = append([]float64(nil), row...)
		}
		u.levels = append(u.levels, actions)
		u.q = append(u.q, q)
		u.q2 = append(u.q2, q2)
	}
	return u, nil
}

// Clusters returns the number of per-cluster agents.
func (u *TDUpdater) Clusters() int { return len(u.levels) }

// Applied returns the number of transitions applied so far.
func (u *TDUpdater) Applied() uint64 { return u.applied }

// Apply performs one Double-Q TD step for t and returns the signed TD
// error. Out-of-range indices and non-finite rewards are rejected without
// touching the tables or the coin stream, so a poisoned report can neither
// corrupt the policy nor desynchronize a seeded replay.
func (u *TDUpdater) Apply(t Transition) (float64, error) {
	if t.Cluster < 0 || t.Cluster >= len(u.levels) {
		return 0, fmt.Errorf("core: transition cluster %d out of [0,%d)", t.Cluster, len(u.levels))
	}
	states, actions := len(u.q[t.Cluster]), u.levels[t.Cluster]
	if t.State < 0 || t.State >= states || t.NextState < 0 || t.NextState >= states {
		return 0, fmt.Errorf("core: transition states %d->%d out of [0,%d)", t.State, t.NextState, states)
	}
	if t.Action < 0 || t.Action >= actions {
		return 0, fmt.Errorf("core: transition action %d out of [0,%d)", t.Action, actions)
	}
	if math.IsNaN(t.Reward) || math.IsInf(t.Reward, 0) {
		return 0, fmt.Errorf("%w: reward %v", ErrBadObservation, t.Reward)
	}
	upd, eval := u.q[t.Cluster], u.q2[t.Cluster]
	if u.r.Bernoulli(0.5) {
		upd, eval = eval, upd
	}
	idx, _ := argmaxF(upd[t.NextState])
	td := t.Reward + u.gamma*eval[t.NextState][idx] - upd[t.State][t.Action]
	upd[t.State][t.Action] += u.alpha * td
	u.applied++
	return td, nil
}

// MeanInto writes the mean of the two tables into f in arena order, with
// the same floating-point expression as Snapshot, so f holds exactly
// NewFlatTables(u.Snapshot().Tables) without allocating. f must have the
// updater's shape (built from the snapshot it was hydrated from, or a
// NewLike copy of one); a mismatch is a caller bug and panics before any
// write. The caller must own f: no reader may hold it during the write.
func (u *TDUpdater) MeanInto(f *FlatTables) {
	n := 0
	for c, t := range u.q {
		if c >= len(f.off) || f.off[c] != n || f.width[c] != u.levels[c] {
			panic(fmt.Sprintf("core: MeanInto: arena cluster %d does not match the updater's shape", c))
		}
		n += len(t) * u.levels[c]
	}
	if len(f.off) != len(u.q) || len(f.arena) != n {
		panic("core: MeanInto: arena size does not match the updater's shape")
	}
	i := 0
	for c, t := range u.q {
		for s, row := range t {
			row2 := u.q2[c][s]
			for j := range row {
				f.arena[i] = (row[j] + row2[j]) / 2
				i++
			}
		}
	}
}

// Snapshot returns the mean of the two tables — the greedy policy the
// learned state implies, in the same form Agent.Table publishes, ready for
// NewModel / EncodeCheckpoint.
func (u *TDUpdater) Snapshot() Snapshot {
	s := Snapshot{State: u.state}
	for c := range u.q {
		tbl := make([][]float64, len(u.q[c]))
		for i, row := range u.q[c] {
			out := make([]float64, len(row))
			for j := range row {
				out[j] = (row[j] + u.q2[c][i][j]) / 2
			}
			tbl[i] = out
		}
		s.Tables = append(s.Tables, tbl)
	}
	return s
}
