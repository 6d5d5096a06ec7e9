package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"rlpm/internal/rng"
)

// randObs draws one observation record with occasional special float
// values, keeping Level/Critical inside their canonical wire ranges.
func randObs(r *rng.Rand) Obs {
	f := func() float64 {
		switch r.Intn(10) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		default:
			return r.Float64()*4 - 2
		}
	}
	return Obs{
		Utilization: f(),
		DemandRatio: f(),
		QoS:         f(),
		ClusterQoS:  f(),
		Critical:    r.Intn(2) == 1,
		Level:       r.Intn(1 << 16),
	}
}

// f64Eq compares floats by bit pattern, so NaN round-trips count as equal.
func f64Eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestHeaderRoundTrip(t *testing.T) {
	var buf [HeaderSize]byte
	for _, typ := range []byte{TError, TCreate, TCreateOK, TDecide, TDecideOK, TReward, TRewardOK, TClose, TCloseOK, TResume, TResumeOK} {
		PutHeader(buf[:], typ, 0xDEADBEEF, 12345)
		h, err := ParseHeader(buf[:])
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if h.Version != Version || h.Type != typ || h.ReqID != 0xDEADBEEF || h.Len != 12345 {
			t.Fatalf("type %d: decoded %+v", typ, h)
		}
	}
}

func TestParseHeaderTypedErrors(t *testing.T) {
	good := func() []byte {
		var b [HeaderSize]byte
		PutHeader(b[:], TDecide, 7, 100)
		return b[:]
	}
	reseal := func(b []byte) []byte { // recompute the CRC after a field edit
		binary.LittleEndian.PutUint32(b[12:16], crc32IEEE(b[:12]))
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"short", good()[:HeaderSize-1], ErrShortHeader},
		{"empty", nil, ErrShortHeader},
		{"flipped version bit", flip(good(), 0), ErrBadCRC},
		{"flipped length bit", flip(good(), 9), ErrBadCRC},
		{"flipped crc bit", flip(good(), 13), ErrBadCRC},
		{"bad version", reseal(set(good(), 0, 99)), ErrBadVersion},
		{"bad type", reseal(set(good(), 1, 200)), ErrBadType},
		{"zero type", reseal(set(good(), 1, 0)), ErrBadType},
		{"reserved byte", reseal(set(good(), 2, 1)), ErrBadPayload},
		{"oversized", reseal(putLen(good(), MaxPayload+1)), ErrOversized},
	}
	for _, c := range cases {
		if _, err := ParseHeader(c.buf); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// MaxPayload itself is legal.
	if _, err := ParseHeader(reseal(putLen(good(), MaxPayload))); err != nil {
		t.Errorf("len == MaxPayload rejected: %v", err)
	}
}

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func flip(b []byte, i int) []byte        { b[i] ^= 0x40; return b }
func set(b []byte, i int, v byte) []byte { b[i] = v; return b }
func putLen(b []byte, n uint32) []byte {
	binary.LittleEndian.PutUint32(b[8:12], n)
	return b
}

func TestPayloadRoundTrips(t *testing.T) {
	r := rng.New(99)
	var buf []byte
	for iter := 0; iter < 200; iter++ {
		creq := CreateReq{Epsilon: r.Float64(), EpsilonMin: r.Float64() / 4, EpsilonDecay: r.Float64(), Seed: r.Uint64()}
		buf = AppendCreateReq(buf[:0], creq)
		var creq2 CreateReq
		if err := ParseCreateReq(buf, &creq2); err != nil {
			t.Fatalf("create: %v", err)
		}
		if creq2 != creq {
			t.Fatalf("create round trip %+v != %+v", creq2, creq)
		}

		nl := make([]int, 1+r.Intn(6))
		for i := range nl {
			nl[i] = r.Intn(1 << 16)
		}
		epoch := uint32(r.Intn(1 << 31))
		buf = AppendCreateOK(buf[:0], r.Uint64(), epoch, nl)
		var cok CreateOK
		if err := ParseCreateOK(buf, &cok); err != nil {
			t.Fatalf("createOK: %v", err)
		}
		if cok.Epoch != epoch || len(cok.NumLevels) != len(nl) {
			t.Fatalf("createOK epoch %d levels %v != epoch %d levels %v", cok.Epoch, cok.NumLevels, epoch, nl)
		}
		for i := range nl {
			if cok.NumLevels[i] != nl[i] {
				t.Fatalf("createOK levels %v != %v", cok.NumLevels, nl)
			}
		}

		obs := make([]Obs, 1+r.Intn(5))
		for i := range obs {
			obs[i] = randObs(r)
		}
		handle := r.Uint64()
		seq := r.Uint64()
		buf = AppendDecideReq(buf[:0], handle, epoch, seq, obs)
		var dreq DecideReq
		if err := ParseDecideReq(buf, &dreq); err != nil {
			t.Fatalf("decide: %v", err)
		}
		if dreq.Handle != handle || dreq.Epoch != epoch || dreq.Seq != seq || len(dreq.Obs) != len(obs) {
			t.Fatalf("decide round trip handle/epoch/seq/count mismatch")
		}
		for i, o := range obs {
			g := dreq.Obs[i]
			if !f64Eq(g.Utilization, o.Utilization) || !f64Eq(g.DemandRatio, o.DemandRatio) ||
				!f64Eq(g.QoS, o.QoS) || !f64Eq(g.ClusterQoS, o.ClusterQoS) ||
				g.Critical != o.Critical || g.Level != o.Level {
				t.Fatalf("obs %d round trip %+v != %+v", i, g, o)
			}
		}

		levels := make([]int, len(obs))
		for i := range levels {
			levels[i] = r.Intn(1 << 16)
		}
		buf = AppendDecideOK(buf[:0], levels)
		var dok DecideOK
		if err := ParseDecideOK(buf, &dok); err != nil {
			t.Fatalf("decideOK: %v", err)
		}
		for i := range levels {
			if dok.Levels[i] != levels[i] {
				t.Fatalf("decideOK %v != %v", dok.Levels, levels)
			}
		}

		rreq := RewardReq{Handle: r.Uint64(), Reward: r.Float64()*10 - 5,
			Epoch: uint32(r.Uint64()), Seq: r.Uint64()}
		buf = AppendRewardReq(buf[:0], rreq)
		var rreq2 RewardReq
		if err := ParseRewardReq(buf, &rreq2); err != nil {
			t.Fatalf("reward: %v", err)
		}
		if rreq2 != rreq {
			t.Fatalf("reward round trip %+v != %+v", rreq2, rreq)
		}

		clreq := CloseReq{Handle: r.Uint64(), Epoch: uint32(r.Uint64())}
		buf = AppendCloseReq(buf[:0], clreq)
		var clreq2 CloseReq
		if err := ParseCloseReq(buf, &clreq2); err != nil {
			t.Fatalf("close: %v", err)
		}
		if clreq2 != clreq {
			t.Fatalf("close round trip %+v != %+v", clreq2, clreq)
		}

		st := Stats{Decisions: r.Uint64(), Rewards: r.Uint64(), MeanReward: r.Float64(), Epsilon: r.Float64()}
		buf = AppendStats(buf[:0], st)
		var st2 Stats
		if err := ParseStats(buf, &st2); err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st2 != st {
			t.Fatalf("stats round trip %+v != %+v", st2, st)
		}

		buf = AppendError(buf[:0], CodeNoSession, 250, "no such session")
		var ef ErrorFrame
		if err := ParseError(buf, &ef); err != nil {
			t.Fatalf("error frame: %v", err)
		}
		if ef.Code != CodeNoSession || ef.BackoffMs != 250 || string(ef.Msg) != "no such session" {
			t.Fatalf("error frame round trip %+v", ef)
		}

		clusters := 1 + r.Intn(4)
		rres := ResumeReq{
			Opts:      creq,
			EpsNow:    r.Float64(),
			Seq:       r.Uint64(),
			Decisions: r.Uint64(),
			Rewards:   r.Uint64(),
			RewardSum: r.Float64()*20 - 10,
		}
		for i := range rres.Rng {
			rres.Rng[i] = r.Uint64()
		}
		for i := 0; i < clusters; i++ {
			rres.PrevDemand = append(rres.PrevDemand, r.Float64()*2)
			rres.LastLevels = append(rres.LastLevels, r.Intn(1<<16))
		}
		buf = AppendResumeReq(buf[:0], &rres)
		var rres2 ResumeReq
		if err := ParseResumeReq(buf, &rres2); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if rres2.Opts != rres.Opts || rres2.Seq != rres.Seq || rres2.Rng != rres.Rng ||
			rres2.Decisions != rres.Decisions || rres2.Rewards != rres.Rewards ||
			!f64Eq(rres2.EpsNow, rres.EpsNow) || !f64Eq(rres2.RewardSum, rres.RewardSum) {
			t.Fatalf("resume round trip %+v != %+v", rres2, rres)
		}
		for i := 0; i < clusters; i++ {
			if !f64Eq(rres2.PrevDemand[i], rres.PrevDemand[i]) || rres2.LastLevels[i] != rres.LastLevels[i] {
				t.Fatalf("resume cluster %d round trip %+v != %+v", i, rres2, rres)
			}
		}
	}
}

// TestCohortLayouts pins the create and resume cohort tails: the cohort
// round-trips, and the legacy layouts without it still parse, as
// CohortDefault, with every other field intact.
func TestCohortLayouts(t *testing.T) {
	creq := CreateReq{Epsilon: 0.25, EpsilonMin: 0.05, EpsilonDecay: 0.9, Seed: 7, Cohort: CohortFrozen}
	p := AppendCreateReq(nil, creq)
	if len(p) != createReqSize {
		t.Fatalf("create encodes %d bytes, want %d", len(p), createReqSize)
	}
	var got CreateReq
	if err := ParseCreateReq(p, &got); err != nil || got != creq {
		t.Fatalf("create round trip %+v (%v), want %+v", got, err, creq)
	}
	if err := ParseCreateReq(p[:createBodySize], &got); err != nil {
		t.Fatalf("legacy create: %v", err)
	}
	if want := (CreateReq{Epsilon: 0.25, EpsilonMin: 0.05, EpsilonDecay: 0.9, Seed: 7}); got != want {
		t.Fatalf("legacy create parsed %+v, want %+v", got, want)
	}

	rreq := ResumeReq{Opts: creq, EpsNow: 0.2, Seq: 5, Rng: [4]uint64{1, 2, 3, 4},
		PrevDemand: []float64{0.5, 1.5}, LastLevels: []int{1, 3}}
	p = AppendResumeReq(nil, &rreq)
	var rgot ResumeReq
	if err := ParseResumeReq(p, &rgot); err != nil || rgot.Opts != creq || rgot.Seq != 5 || rgot.LastLevels[1] != 3 {
		t.Fatalf("resume round trip %+v (%v), want %+v", rgot, err, rreq)
	}
	if err := ParseResumeReq(p[:len(p)-2], &rgot); err != nil {
		t.Fatalf("legacy resume: %v", err)
	}
	if rgot.Opts.Cohort != CohortDefault || rgot.Opts.Seed != 7 || rgot.PrevDemand[1] != 1.5 || rgot.LastLevels[1] != 3 {
		t.Fatalf("legacy resume parsed %+v", rgot)
	}
	if err := ParseResumeReq(p[:len(p)-1], &rgot); !errors.Is(err, ErrTruncated) {
		t.Fatalf("resume with half a cohort tail: %v, want ErrTruncated", err)
	}
}

func TestParseTypedErrors(t *testing.T) {
	// Truncations of every fixed layout.
	var creq CreateReq
	if err := ParseCreateReq(make([]byte, createReqSize-1), &creq); !errors.Is(err, ErrTruncated) {
		t.Errorf("short create: %v", err)
	}
	if err := ParseCreateReq(make([]byte, createReqSize+1), &creq); !errors.Is(err, ErrBadPayload) {
		t.Errorf("long create: %v", err)
	}
	var dreq DecideReq
	if err := ParseDecideReq(nil, &dreq); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty decide: %v", err)
	}
	// Count says 3 observations, payload holds 1.
	p := AppendDecideReq(nil, 1, 1, 1, make([]Obs, 1))
	binary.LittleEndian.PutUint16(p[decideReqBase-2:], 3)
	if err := ParseDecideReq(p, &dreq); !errors.Is(err, ErrTruncated) {
		t.Errorf("undersupplied decide: %v", err)
	}
	// Count says 1, payload holds 2 — trailing bytes.
	p = AppendDecideReq(nil, 1, 1, 1, make([]Obs, 2))
	binary.LittleEndian.PutUint16(p[decideReqBase-2:], 1)
	if err := ParseDecideReq(p, &dreq); !errors.Is(err, ErrBadPayload) {
		t.Errorf("oversupplied decide: %v", err)
	}
	// Non-canonical critical byte.
	p = AppendDecideReq(nil, 1, 1, 1, make([]Obs, 1))
	p[decideReqBase+32] = 7
	if err := ParseDecideReq(p, &dreq); !errors.Is(err, ErrBadPayload) {
		t.Errorf("bad critical byte: %v", err)
	}
	var rres ResumeReq
	if err := ParseResumeReq(make([]byte, resumeReqBase-1), &rres); !errors.Is(err, ErrTruncated) {
		t.Errorf("short resume: %v", err)
	}
	p = AppendResumeReq(nil, &ResumeReq{PrevDemand: []float64{0.5}, LastLevels: []int{1}})
	binary.LittleEndian.PutUint16(p[resumeReqBase-2:], 3)
	if err := ParseResumeReq(p, &rres); !errors.Is(err, ErrTruncated) {
		t.Errorf("undersupplied resume: %v", err)
	}
	// A close names its epoch: the handle-only layout is refused.
	var clr CloseReq
	if err := ParseCloseReq(make([]byte, 8), &clr); !errors.Is(err, ErrTruncated) {
		t.Errorf("epoch-less close: %v", err)
	}
	var dok DecideOK
	if err := ParseDecideOK([]byte{5}, &dok); !errors.Is(err, ErrTruncated) {
		t.Errorf("short decideOK: %v", err)
	}
	var ef ErrorFrame
	if err := ParseError([]byte{1}, &ef); !errors.Is(err, ErrTruncated) {
		t.Errorf("short error frame: %v", err)
	}
}

func TestFrameAssemblyAndReadFrame(t *testing.T) {
	obs := []Obs{{Utilization: 0.5, Level: 3}, {DemandRatio: 1.25, Critical: true}}
	var buf []byte
	buf = AppendDecideReq(BeginFrame(buf), 42, 3, 17, obs)
	buf = FinishFrame(buf, TDecide, 9)

	var hdr [HeaderSize]byte
	h, payload, err := ReadFrame(bytes.NewReader(buf), &hdr, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if h.Type != TDecide || h.ReqID != 9 || int(h.Len) != len(buf)-HeaderSize-TrailerSize {
		t.Fatalf("header %+v for a %d-byte frame", h, len(buf))
	}
	var dreq DecideReq
	if err := ParseDecideReq(payload, &dreq); err != nil {
		t.Fatalf("ParseDecideReq: %v", err)
	}
	if dreq.Handle != 42 || dreq.Epoch != 3 || dreq.Seq != 17 || len(dreq.Obs) != 2 || !dreq.Obs[1].Critical {
		t.Fatalf("decoded %+v", dreq)
	}

	// A truncated stream surfaces as unexpected EOF, not a hang or panic.
	if _, _, err := ReadFrame(bytes.NewReader(buf[:len(buf)-1]), &hdr, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v", err)
	}

	// A corrupted payload byte fails the trailer CRC — the guarantee that a
	// fault anywhere in the frame can never decode into a divergent
	// decision.
	corrupt := append([]byte(nil), buf...)
	corrupt[HeaderSize+5] ^= 0x10
	if _, _, err := ReadFrame(bytes.NewReader(corrupt), &hdr, nil); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupted payload byte: %v, want ErrBadCRC", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf[:HeaderSize-2]), &hdr, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}

	// An oversized length prefix is rejected from the header alone: the
	// reader below would block forever if ReadFrame tried to read the
	// declared payload.
	var big [HeaderSize]byte
	big[0] = Version
	big[1] = TDecide
	binary.LittleEndian.PutUint32(big[8:12], MaxPayload+1)
	binary.LittleEndian.PutUint32(big[12:16], crc32IEEE(big[:12]))
	r := io.MultiReader(bytes.NewReader(big[:]), neverReader{})
	if _, _, err := ReadFrame(r, &hdr, nil); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized prefix: %v", err)
	}
}

// neverReader blocks ReadFrame forever if it is ever consulted — the test
// fails by deadlock timeout, proving over-read rather than asserting it.
type neverReader struct{}

func (neverReader) Read([]byte) (int, error) { select {} }

// TestRewardReqLegacyLayout pins the dual-size reward payload contract:
// the 16-byte pre-dedup layout still parses (Epoch/Seq zero), the tagged
// form is exactly 28 bytes, and any other size is rejected.
func TestRewardReqLegacyLayout(t *testing.T) {
	tagged := AppendRewardReq(nil, RewardReq{Handle: 0xfeed, Reward: -1.5, Epoch: 9, Seq: 42})
	if len(tagged) != 28 {
		t.Fatalf("tagged payload is %d bytes, want 28", len(tagged))
	}

	var legacy RewardReq
	if err := ParseRewardReq(tagged[:16], &legacy); err != nil {
		t.Fatalf("legacy 16-byte parse: %v", err)
	}
	if legacy.Handle != 0xfeed || legacy.Reward != -1.5 || legacy.Epoch != 0 || legacy.Seq != 0 {
		t.Fatalf("legacy parse = %+v, want handle/reward with zero epoch/seq", legacy)
	}

	for _, n := range []int{0, 8, 15, 17, 27} {
		var r RewardReq
		if err := ParseRewardReq(tagged[:n], &r); err == nil {
			t.Fatalf("%d-byte payload accepted", n)
		}
	}
	if err := ParseRewardReq(append(tagged, 0), &legacy); err == nil {
		t.Fatal("29-byte payload accepted")
	}
}

// TestPeekRequest pins the windows' gather test: a complete buffered
// frame of every request type reports its type and, for a decide, its
// observation count; anything a window could block on reports false; and
// nothing is consumed.
func TestPeekRequest(t *testing.T) {
	seal := func(typ byte, payload []byte) []byte { return FinishFrame(payload, typ, 1) }
	decide := seal(TDecide, AppendDecideReq(BeginFrame(nil), 7, 1, 2, make([]Obs, 3)))
	oversized := append([]byte(nil), decide[:HeaderSize]...)
	PutHeader(oversized, TCreate, 3, MaxPayload+1)
	cases := []struct {
		name    string
		stream  []byte
		wantTyp byte
		wantObs int
		wantOK  bool
	}{
		{"create", seal(TCreate, AppendCreateReq(BeginFrame(nil), CreateReq{Seed: 9})), TCreate, 0, true},
		{"resume", seal(TResume, AppendResumeReq(BeginFrame(nil), &ResumeReq{PrevDemand: []float64{1, 2}})), TResume, 0, true},
		{"decide", decide, TDecide, 3, true},
		{"empty decide", seal(TDecide, AppendDecideReq(BeginFrame(nil), 7, 1, 2, nil)), TDecide, 0, true},
		{"reward", seal(TReward, AppendRewardReq(BeginFrame(nil), RewardReq{Handle: 7, Reward: -1})), TReward, 0, true},
		{"close", seal(TClose, AppendCloseReq(BeginFrame(nil), CloseReq{Handle: 7})), TClose, 0, true},
		{"answer type", seal(TCloseOK, AppendStats(BeginFrame(nil), Stats{})), TCloseOK, 0, true},
		{"decide missing its trailer", decide[:len(decide)-1], TDecide, 0, false},
		{"header only", decide[:HeaderSize], TDecide, 0, false},
		{"partial header", decide[:HeaderSize-1], 0, 0, false},
		{"oversized prefix", oversized, TCreate, 0, true},
	}
	for _, tc := range cases {
		br := bufio.NewReader(bytes.NewReader(tc.stream))
		br.Peek(len(tc.stream)) // fill the buffer, as a socket read would
		typ, n, ok := PeekRequest(br)
		if typ != tc.wantTyp || n != tc.wantObs || ok != tc.wantOK {
			t.Errorf("%s: PeekRequest = %d, %d, %v; want %d, %d, %v", tc.name, typ, n, ok, tc.wantTyp, tc.wantObs, tc.wantOK)
		}
		if br.Buffered() != len(tc.stream) {
			t.Errorf("%s: PeekRequest consumed input (%d of %d bytes left)", tc.name, br.Buffered(), len(tc.stream))
		}
	}
}
