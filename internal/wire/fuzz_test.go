package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// knownErr reports whether err chains to one of the package's typed decode
// errors — the only failures the decoder is allowed to produce.
func knownErr(err error) bool {
	for _, sentinel := range []error{
		ErrShortHeader, ErrBadCRC, ErrBadVersion, ErrBadType,
		ErrOversized, ErrTruncated, ErrBadPayload,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// reencode re-serializes the value a successful decode produced; canonical
// encoding means it must reproduce the payload byte-for-byte, which also
// proves the decoder read exactly the bytes it was given.
func reencode(t byte, p []byte) ([]byte, error) {
	switch t {
	case TCreate:
		var v CreateReq
		if err := ParseCreateReq(p, &v); err != nil {
			return nil, err
		}
		// The legacy layout decodes with CohortDefault; its canonical
		// re-encode is the current form without the cohort tail.
		out := AppendCreateReq(nil, v)
		if len(p) == createBodySize {
			out = out[:createBodySize]
		}
		return out, nil
	case TCreateOK, TResumeOK:
		var v CreateOK
		if err := ParseCreateOK(p, &v); err != nil {
			return nil, err
		}
		return AppendCreateOK(nil, v.Handle, v.Epoch, v.NumLevels), nil
	case TDecide:
		var v DecideReq
		if err := ParseDecideReq(p, &v); err != nil {
			return nil, err
		}
		return AppendDecideReq(nil, v.Handle, v.Epoch, v.Seq, v.Obs), nil
	case TResume:
		var v ResumeReq
		if err := ParseResumeReq(p, &v); err != nil {
			return nil, err
		}
		out := AppendResumeReq(nil, &v)
		if len(p) == len(out)-2 { // legacy layout: no cohort tail
			out = out[:len(p)]
		}
		return out, nil
	case TDecideOK:
		var v DecideOK
		if err := ParseDecideOK(p, &v); err != nil {
			return nil, err
		}
		return AppendDecideOK(nil, v.Levels), nil
	case TReward:
		var v RewardReq
		if err := ParseRewardReq(p, &v); err != nil {
			return nil, err
		}
		out := AppendRewardReq(nil, v)
		// The legacy 16-byte layout decodes with a zero epoch/seq tail; its
		// canonical re-encode is the tagged form truncated back to the bytes
		// actually read.
		if len(p) == 16 {
			out = out[:16]
		}
		return out, nil
	case TRewardOK, TCloseOK:
		var v Stats
		if err := ParseStats(p, &v); err != nil {
			return nil, err
		}
		return AppendStats(nil, v), nil
	case TClose:
		var v CloseReq
		if err := ParseCloseReq(p, &v); err != nil {
			return nil, err
		}
		return AppendCloseReq(nil, v), nil
	case TError:
		var v ErrorFrame
		if err := ParseError(p, &v); err != nil {
			return nil, err
		}
		return AppendError(nil, v.Code, v.BackoffMs, string(v.Msg)), nil
	}
	return nil, errors.New("unreachable: ValidType admitted an unknown type")
}

// FuzzWireDecode throws arbitrary bytes at the full frame-decode pipeline:
// header parse, payload framing, and the per-type payload decoder. The
// invariants: never panic, never over-read (slices are exactly sized),
// every failure is a typed wire error, and every success re-encodes to the
// identical bytes.
func FuzzWireDecode(f *testing.F) {
	// Seed with one well-formed frame per type...
	seed := func(t byte, payload []byte) {
		f.Add(FinishFrame(append(BeginFrame(nil), payload...), t, 7))
	}
	seed(TCreate, AppendCreateReq(nil, CreateReq{Epsilon: 0.3, EpsilonDecay: 0.99, Seed: 11, Cohort: CohortFrozen}))
	seed(TCreate, AppendCreateReq(nil, CreateReq{Epsilon: 0.3, EpsilonDecay: 0.99, Seed: 11})[:createBodySize]) // legacy layout
	seed(TCreateOK, AppendCreateOK(nil, 5, 1, []int{3, 5}))
	seed(TDecide, AppendDecideReq(nil, 5, 1, 9, []Obs{{Utilization: 0.8, Level: 2}, {Critical: true}}))
	seed(TDecideOK, AppendDecideOK(nil, []int{1, 4}))
	seed(TReward, AppendRewardReq(nil, RewardReq{Handle: 5, Reward: -1.5, Epoch: 2, Seq: 9}))
	seed(TReward, AppendRewardReq(nil, RewardReq{Handle: 5, Reward: -1.5})[:16]) // legacy untagged layout
	seed(TRewardOK, AppendStats(nil, Stats{Decisions: 10, Rewards: 2, MeanReward: -0.5}))
	seed(TClose, AppendCloseReq(nil, CloseReq{Handle: 5}))
	seed(TError, AppendError(nil, CodeNoSession, 100, "gone"))
	resume := AppendResumeReq(nil, &ResumeReq{
		Opts:       CreateReq{Epsilon: 0.2, EpsilonDecay: 0.98, Seed: 4, Cohort: CohortFrozen},
		EpsNow:     0.1,
		Seq:        12,
		Decisions:  12,
		Rewards:    3,
		RewardSum:  -4.5,
		Rng:        [4]uint64{1, 2, 3, 4},
		PrevDemand: []float64{0.5, 1.25},
		LastLevels: []int{2, 0},
	})
	seed(TResume, resume)
	seed(TResume, resume[:len(resume)-2]) // legacy layout
	seed(TResumeOK, AppendCreateOK(nil, 6, 2, []int{3, 5}))
	// Multi-period decide: 2 periods × 2 clusters in one frame, plus the
	// malformed-count shapes the parser must reject — count=0, count
	// overstating the payload, and trailing bytes after the declared
	// observations.
	seed(TDecide, AppendDecideReq(nil, 5, 1, 9, []Obs{
		{Utilization: 0.8, Level: 2}, {Critical: true},
		{Utilization: 0.4, Level: 1}, {DemandRatio: 2},
	}))
	zeroCount := AppendDecideReq(nil, 5, 1, 9, []Obs{{Level: 1}})[:22]
	zeroCount[20], zeroCount[21] = 0, 0
	seed(TDecide, zeroCount)
	underCount := AppendDecideReq(nil, 5, 1, 9, []Obs{{Level: 1}})
	underCount[20] = 2
	seed(TDecide, underCount)
	seed(TDecide, append(AppendDecideReq(nil, 5, 1, 9, []Obs{{Level: 1}}), 0xAA))
	// ...and classic malformations: truncations, a bad version, a
	// corrupted CRC, an oversized length prefix.
	good := FinishFrame(AppendCloseReq(BeginFrame(nil), CloseReq{Handle: 1}), TClose, 1)
	f.Add(good[:HeaderSize-3])
	f.Add(good[:len(good)-2])
	bad := append([]byte(nil), good...)
	bad[0] = 9
	f.Add(bad)
	bad2 := append([]byte(nil), good...)
	bad2[13] ^= 0xFF
	f.Add(bad2)
	big := make([]byte, HeaderSize)
	big[0], big[1] = Version, TDecide
	binary.LittleEndian.PutUint32(big[8:12], MaxPayload+100)
	binary.LittleEndian.PutUint32(big[12:16], crc32.ChecksumIEEE(big[:12]))
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [HeaderSize]byte
		h, payload, err := ReadFrame(bytes.NewReader(data), &hdr, nil)
		if err != nil {
			// IO truncation or a typed header error; nothing else.
			if !knownErr(err) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("ReadFrame returned an untyped error: %v", err)
			}
			return
		}
		if int(h.Len) != len(payload) || h.Len > MaxPayload {
			t.Fatalf("ReadFrame sized payload %d against header %d", len(payload), h.Len)
		}
		out, err := reencode(h.Type, payload)
		if err != nil {
			if !knownErr(err) {
				t.Fatalf("payload decoder returned an untyped error: %v", err)
			}
			return
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("type %d: re-encode diverged\n in: %x\nout: %x", h.Type, payload, out)
		}
	})
}
