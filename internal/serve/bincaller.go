// BinCaller: single-attempt, caller-owned-scratch calls over a BinClient.
//
// Every binary-protocol call makes its attempts through a BinCaller: one
// frame out, one frame back, typed errors through the error table, no
// mirror, no retries. A binary RemoteSession borrows one from its client
// for each attempt and wraps its attempts in the mirror's retry/resume
// loop — exactly what a device wants and exactly what a *router* must not
// do: the router forwards calls on behalf of remote devices whose clients
// already run the retry/resume machinery, so a middle tier that retried
// too would double the recovery logic and hide shard failures the device
// needs to see (an unknown-session answer is the handoff signal). All
// scratch, including the call's rendezvous with the connection's reader,
// lives in the caller, so a router can keep one BinCaller per forward in
// flight and stay allocation-free; a call can be started and awaited in
// two halves, so one goroutine can keep many forwards in flight.
package serve

import (
	"context"
	"fmt"

	"rlpm/internal/wire"
)

// BinSessionInfo is what a create or resume minted: the session's handle,
// the epoch it is valid in, and the served chip's shape.
type BinSessionInfo struct {
	Handle    uint64
	Epoch     uint32
	NumLevels []int // valid until the caller's next call, or the conn's next window
}

// BinCaller holds the encode/decode scratch for single-attempt calls. Not
// goroutine-safe — callers pool them (one per in-flight forward). The zero
// value is ready to use.
type BinCaller struct {
	typ  byte // the request type in flight
	wbuf []byte
	cok  wire.CreateOK
	dok  wire.DecideOK
	call muxCall
}

// Start appends req's frame to c's pending bytes without sending them,
// and starts its deadline: a window starts many forwards, flushes each
// client it touched once (BinClient.Flush), then awaits them in order.
// Every Start must be followed by its Await before the caller's next call.
func (b *BinCaller) Start(c *BinClient, req *FrontReq) { b.start(c, req, false) }

// Call is one whole call: req's frame, sent at once in one write shared
// with the concurrent callers on c, then its answer.
func (b *BinCaller) Call(ctx context.Context, c *BinClient, req *FrontReq) (FrontAns, error) {
	b.start(c, req, true)
	return b.Await(ctx)
}

// start encodes req under a fresh request id and appends it to c's
// pending bytes, sending them at once when flush is set.
func (b *BinCaller) start(c *BinClient, req *FrontReq, flush bool) {
	b.typ = req.Type
	p := wire.BeginFrame(b.wbuf)
	switch req.Type {
	case wire.TCreate:
		p = wire.AppendCreateReq(p, optionsToWire(req.Opts))
	case wire.TResume:
		rr := resumeToWire(&req.Resume)
		p = wire.AppendResumeReq(p, &rr)
	case wire.TDecide:
		p = wire.AppendDecideReq(p, req.Handle, req.Epoch, req.Seq, req.Obs)
	case wire.TReward:
		p = wire.AppendRewardReq(p, wire.RewardReq{Handle: req.Handle, Reward: req.Reward, Epoch: req.Epoch, Seq: req.Seq})
	case wire.TClose:
		p = wire.AppendCloseReq(p, wire.CloseReq{Handle: req.Handle, Epoch: req.Epoch})
	}
	mc, err := c.conn()
	if err != nil {
		b.call.err = err
		return
	}
	reqID := mc.reqID.Add(1)
	b.wbuf = wire.FinishFrame(p, req.Type, reqID)
	c.start(mc, &b.call, b.wbuf, reqID, flush)
}

// Await collects the answer to the caller's started call: Info for a
// create or resume, Levels for a decide, Stats for a reward or close. Its
// slices are the caller's scratch, valid until its next call.
func (b *BinCaller) Await(ctx context.Context) (FrontAns, error) {
	p, err := b.call.await(ctx, okType(b.typ))
	if err != nil {
		return FrontAns{}, err
	}
	var ans FrontAns
	switch b.typ {
	case wire.TCreate, wire.TResume:
		err = wire.ParseCreateOK(p, &b.cok)
		ans.Info = BinSessionInfo{Handle: b.cok.Handle, Epoch: b.cok.Epoch, NumLevels: b.cok.NumLevels}
	case wire.TDecide:
		err = wire.ParseDecideOK(p, &b.dok)
		ans.Levels = b.dok.Levels
	default: // TReward, TClose
		err = wire.ParseStats(p, &ans.Stats)
	}
	if err != nil {
		return FrontAns{}, err
	}
	return ans, nil
}

// The binary create and resume codecs: the one conversion between the
// session types and their wire payloads, shared by clients, servers and
// routers.

// cohortCodes spells SessionOptions.Cohort on the wire: the index is the
// code. Any other code is undefined, and a server refuses it.
var cohortCodes = [...]string{
	wire.CohortDefault:  "",
	wire.CohortLearning: CohortLearning,
	wire.CohortFrozen:   CohortFrozen,
}

// optionsFromWire is the SessionOptions a create payload carries. An
// undefined cohort code fails with ErrBadRequest, as the JSON front
// refuses an unknown cohort name.
func optionsFromWire(r wire.CreateReq) (SessionOptions, error) {
	if int(r.Cohort) >= len(cohortCodes) {
		return SessionOptions{}, fmt.Errorf("%w: undefined cohort code %d", ErrBadRequest, r.Cohort)
	}
	return SessionOptions{Epsilon: r.Epsilon, EpsilonMin: r.EpsilonMin, EpsilonDecay: r.EpsilonDecay, Seed: r.Seed,
		Cohort: cohortCodes[r.Cohort]}, nil
}

// optionsToWire is the create payload for o. A cohort name the wire cannot
// spell is sent as an undefined code, so the server refuses it as the JSON
// front would.
func optionsToWire(o SessionOptions) wire.CreateReq {
	r := wire.CreateReq{Epsilon: o.Epsilon, EpsilonMin: o.EpsilonMin, EpsilonDecay: o.EpsilonDecay, Seed: o.Seed,
		Cohort: uint16(len(cohortCodes))}
	for code, name := range cohortCodes {
		if name == o.Cohort {
			r.Cohort = uint16(code)
		}
	}
	return r
}

// resumeFromWire is the ResumeState a resume payload carries. Its slices
// alias r's.
func resumeFromWire(r *wire.ResumeReq) (ResumeState, error) {
	opts, err := optionsFromWire(r.Opts)
	if err != nil {
		return ResumeState{}, err
	}
	return ResumeState{
		Options:    opts,
		Epsilon:    r.EpsNow,
		Rng:        r.Rng,
		Seq:        r.Seq,
		LastLevels: r.LastLevels,
		PrevDemand: r.PrevDemand,
		Decisions:  r.Decisions,
		Rewards:    r.Rewards,
		RewardSum:  r.RewardSum,
	}, nil
}

func resumeToWire(st *ResumeState) wire.ResumeReq {
	return wire.ResumeReq{
		Opts:       optionsToWire(st.Options),
		EpsNow:     st.Epsilon,
		Seq:        st.Seq,
		Decisions:  st.Decisions,
		Rewards:    st.Rewards,
		RewardSum:  st.RewardSum,
		Rng:        st.Rng,
		PrevDemand: st.PrevDemand,
		LastLevels: st.LastLevels,
	}
}

// statsFromWire is the session ledger a reward or close answer carries,
// labelled with the session's id.
func statsFromWire(id string, st wire.Stats) SessionStats {
	return SessionStats{ID: id, Decisions: st.Decisions, Rewards: st.Rewards, MeanReward: st.MeanReward, Epsilon: st.Epsilon}
}

func statsToWire(st SessionStats) wire.Stats {
	return wire.Stats{Decisions: st.Decisions, Rewards: st.Rewards, MeanReward: st.MeanReward, Epsilon: st.Epsilon}
}
