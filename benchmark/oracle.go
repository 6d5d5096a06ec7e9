package main

import (
	"fmt"
	"slices"

	"rlpm/internal/serve"
)

// recordEvery and recordMax pick the devices whose full (frame, levels)
// history the oracle replays: every 64th device, at most 16.
const (
	recordEvery = 64
	recordMax   = 16
)

// replayResult is the correctness gate's tally.
type replayResult struct {
	frames, checked, mismatches int
	first                       string // the first mismatch, for the report
}

func (r *replayResult) mismatch(format string, args ...any) {
	r.mismatches++
	if r.first == "" {
		r.first = fmt.Sprintf(format, args...)
	}
}

// replay feeds each recorded device's frames, in order, to sessions on
// in-process servers and checks the served levels. A device that failed
// mid-run has no complete history and is skipped; its failure is reported
// anyway.
//
// A frozen policy serves a pure function of the session's history, so the
// served levels must equal the in-process ones exactly. A learning server's
// greedy answers follow whatever tables the learner had published when the
// frame arrived, so there only exploration is replayable: the session's
// RNG draws do not depend on the tables. Two replays against tables whose
// argmax is pinned to the lowest and to the highest level agree exactly
// where the session explored; those levels must match the served ones, and
// every other served level must be in range.
func replay(model *serve.Model, devs []*device, learning bool) (replayResult, error) {
	var res replayResult
	models := []*serve.Model{model}
	if learning {
		low, err := pinnedModel(model, false)
		if err != nil {
			return res, err
		}
		high, err := pinnedModel(model, true)
		if err != nil {
			return res, err
		}
		models = []*serve.Model{low, high}
	}
	for _, d := range devs {
		if d.rec == nil || d.dead != nil {
			continue
		}
		if err := replayDevice(&res, models, d, model.NumLevels()); err != nil {
			return res, fmt.Errorf("replaying device %d: %w", d.idx, err)
		}
	}
	return res, nil
}

func replayDevice(res *replayResult, models []*serve.Model, d *device, numLevels []int) error {
	servers := make([]*serve.Server, len(models))
	sessions := make([]*serve.Session, len(models))
	got := make([][]int, len(models))
	fl := d.k * d.n
	for i, m := range models {
		srv, err := serve.New(m, serve.NewSWBackend(m), serve.Config{})
		if err != nil {
			return err
		}
		defer srv.Close()
		servers[i] = srv
		got[i] = make([]int, fl)
	}
	for f := 0; f*fl < len(d.rec.obs); f++ {
		if slices.Contains(d.rec.starts, f) {
			for i, srv := range servers {
				var err error
				if sessions[i], err = srv.CreateSession(d.opts); err != nil {
					return err
				}
			}
		}
		obs, want := d.rec.obs[f*fl:(f+1)*fl], d.rec.levels[f*fl:(f+1)*fl]
		for i, s := range sessions {
			if err := s.DecideInto(obs, got[i]); err != nil {
				return fmt.Errorf("frame %d: %w", f, err)
			}
		}
		res.frames++
		if len(models) == 1 {
			res.checked += fl
			if !slices.Equal(got[0], want) {
				res.mismatch("device %d frame %d: served %v, in-process %v", d.idx, f, want, got[0])
			}
			continue
		}
		for j, lvl := range want {
			switch {
			case lvl < 0 || lvl >= numLevels[j%d.n]:
				res.mismatch("device %d frame %d: served level %d out of range", d.idx, f, lvl)
			case got[0][j] == got[1][j]:
				res.checked++
				if lvl != got[0][j] {
					res.mismatch("device %d frame %d: explored level %d served as %d", d.idx, f, got[0][j], lvl)
				}
			}
		}
	}
	return nil
}

// pinnedModel copies model's shape with every row's argmax on the lowest
// (or highest) action.
func pinnedModel(model *serve.Model, high bool) (*serve.Model, error) {
	snap := model.Snapshot()
	for _, t := range snap.Tables {
		for _, row := range t {
			clear(row)
			if high {
				row[len(row)-1] = 1
			} else {
				row[0] = 1
			}
		}
	}
	return serve.NewModel(model.Config(), snap)
}
