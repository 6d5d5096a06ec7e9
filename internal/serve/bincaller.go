// BinCaller: single-attempt, caller-owned-scratch calls over a BinClient.
//
// Every binary-protocol call makes its attempts through a BinCaller: one
// frame out, one frame back, typed errors through the error table, no
// mirror, no retries. BinSession owns one and wraps its attempts in the
// mirror's retry/resume loop — exactly what a device wants and exactly
// what a *router* must not do: the router forwards calls on behalf of
// remote devices whose clients already run the retry/resume machinery, so
// a middle tier that retried too would double the recovery logic and hide
// shard failures the device needs to see (an unknown-session answer is the
// handoff signal). All scratch, including the call's rendezvous with the
// connection's reader, lives in the caller, so a router can keep one
// BinCaller per forward in flight and stay allocation-free; a decide can
// be started and awaited in two halves, so one goroutine can keep many
// forwards in flight.
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
	NumLevels []int // valid until the caller's or conn's next create or resume
}

// BinCaller holds the encode/decode scratch for single-attempt calls. Not
// goroutine-safe — callers pool them (one per in-flight forward). The zero
// value is ready to use.
type BinCaller struct {
	wbuf []byte
	cok  wire.CreateOK
	dok  wire.DecideOK
	call muxCall
}

// start seals the request frame (a payload appended after
// wire.BeginFrame(b.wbuf)) under a fresh request id and writes it into c's
// connection buffer, flushing last-writer-out when flush is set.
func (b *BinCaller) start(c *BinClient, frame []byte, typ byte, flush bool) {
	mc, err := c.conn()
	if err != nil {
		b.call.err = err
		return
	}
	reqID := mc.reqID.Add(1)
	b.wbuf = wire.FinishFrame(frame, typ, reqID)
	c.start(mc, &b.call, b.wbuf, reqID, flush)
}

// send is one whole call: start, flushed, then await the wantType answer.
// The payload is valid until the caller's next call.
func (b *BinCaller) send(ctx context.Context, c *BinClient, frame []byte, typ, wantType byte) ([]byte, error) {
	b.start(c, frame, typ, true)
	return b.call.await(ctx, wantType)
}

// Create opens a session on c with no client-side mirror. One attempt.
func (b *BinCaller) Create(ctx context.Context, c *BinClient, opts SessionOptions) (BinSessionInfo, error) {
	return b.open(ctx, c, wire.AppendCreateReq(wire.BeginFrame(b.wbuf), optionsToWire(opts)), wire.TCreate, wire.TCreateOK)
}

// Resume re-creates a session on c from mirror state. One attempt.
func (b *BinCaller) Resume(ctx context.Context, c *BinClient, st ResumeState) (BinSessionInfo, error) {
	rr := resumeToWire(&st)
	return b.open(ctx, c, wire.AppendResumeReq(wire.BeginFrame(b.wbuf), &rr), wire.TResume, wire.TResumeOK)
}

func (b *BinCaller) open(ctx context.Context, c *BinClient, frame []byte, typ, wantType byte) (BinSessionInfo, error) {
	p, err := b.send(ctx, c, frame, typ, wantType)
	if err != nil {
		return BinSessionInfo{}, err
	}
	if err := wire.ParseCreateOK(p, &b.cok); err != nil {
		return BinSessionInfo{}, err
	}
	return BinSessionInfo{Handle: b.cok.Handle, Epoch: b.cok.Epoch, NumLevels: b.cok.NumLevels}, nil
}

// DecideSeq forwards one decide frame (possibly multi-period) under the
// shard-side handle/epoch/seq: StartDecide, flushed, then AwaitDecide.
// The returned slice is scratch, valid until the caller's next decide.
func (b *BinCaller) DecideSeq(ctx context.Context, c *BinClient, handle uint64, epoch uint32, seq uint64, obs []Observation) ([]int, error) {
	b.startDecide(c, handle, epoch, seq, obs, true)
	return b.AwaitDecide(ctx)
}

// StartDecide writes a decide frame into c's connection buffer without
// flushing it, and starts its deadline: a window starts many forwards,
// flushes each client it touched once (BinClient.Flush), then awaits them
// in order. Every StartDecide must be followed by its AwaitDecide before
// the caller's next call.
func (b *BinCaller) StartDecide(c *BinClient, handle uint64, epoch uint32, seq uint64, obs []Observation) {
	b.startDecide(c, handle, epoch, seq, obs, false)
}

func (b *BinCaller) startDecide(c *BinClient, handle uint64, epoch uint32, seq uint64, obs []Observation, flush bool) {
	b.start(c, wire.AppendDecideReq(wire.BeginFrame(b.wbuf), handle, epoch, seq, obs), wire.TDecide, flush)
}

// AwaitDecide collects the answer to the caller's started decide. The
// returned slice is scratch, valid until the caller's next decide.
func (b *BinCaller) AwaitDecide(ctx context.Context) ([]int, error) {
	p, err := b.call.await(ctx, wire.TDecideOK)
	if err != nil {
		return nil, err
	}
	if err := wire.ParseDecideOK(p, &b.dok); err != nil {
		return nil, err
	}
	return b.dok.Levels, nil
}

// Reward forwards a reward report under the shard-side handle/epoch and
// the device's reward sequence number (0 = untagged legacy); Close
// forwards a session close. Both return the shard-side ledger.
func (b *BinCaller) Reward(ctx context.Context, c *BinClient, handle uint64, epoch uint32, seq uint64, reward float64) (wire.Stats, error) {
	return parseStats(b.send(ctx, c, wire.AppendRewardReq(wire.BeginFrame(b.wbuf), wire.RewardReq{
		Handle: handle, Reward: reward, Epoch: epoch, Seq: seq,
	}), wire.TReward, wire.TRewardOK))
}

func (b *BinCaller) Close(ctx context.Context, c *BinClient, handle uint64) (wire.Stats, error) {
	return parseStats(b.send(ctx, c, wire.AppendCloseReq(wire.BeginFrame(b.wbuf), wire.CloseReq{Handle: handle}), wire.TClose, wire.TCloseOK))
}

func parseStats(p []byte, err error) (wire.Stats, error) {
	var st wire.Stats
	if err == nil {
		err = wire.ParseStats(p, &st)
	}
	if err != nil {
		return wire.Stats{}, err
	}
	return st, nil
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
