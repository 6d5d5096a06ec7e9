// Package wire is the compact binary protocol the decision server speaks
// alongside HTTP/JSON — the "short communication interface" the paper's
// latency claim leans on, applied to the serving tier.
//
// The first serving measurements had the modeled hardware backend
// answering in ~200 ns while the end-to-end HTTP/JSON p50 sat at ~2.3 ms:
// the communication interface, not the policy, was the bottleneck. This package replaces it
// with length-prefixed fixed-layout frames over persistent multiplexed TCP
// connections:
//
//   - every frame is a 16-byte CRC-guarded header followed by a
//     little-endian fixed-layout payload and a CRC32 payload trailer — no
//     field names, no escaping, no variable-width integers, so encode and
//     decode are straight-line copies that allocate nothing after warm-up;
//     the payload trailer means a corrupted byte anywhere in the frame is
//     detected instead of silently decoding into a divergent decision
//     (the property the chaos harness's byte-identity invariant rests on);
//   - the header carries a version byte (rejected before anything else is
//     trusted), a frame type, a request id echoed in the response (so
//     many device sessions can multiplex one connection and pipeline
//     requests), and the payload length, all guarded by a CRC32 so a
//     desynchronized or corrupted stream is detected at the frame
//     boundary instead of being misparsed as a giant length prefix;
//   - payload decoders validate exact sizes and canonical encodings and
//     return typed errors (never panic, never over-read) — the contract
//     pinned by FuzzWireDecode and the round-trip property test.
//
// Layouts (all integers little-endian, floats IEEE-754 bit patterns; every
// frame is header | payload | crc32(payload) u32):
//
//	header    version u8 | type u8 | reserved u16 (=0) | req_id u32 |
//	          payload_len u32 | crc32(bytes 0..11) u32
//	create    epsilon f64 | epsilon_min f64 | epsilon_decay f64 | seed u64
//	          [| cohort u16]
//	createOK  handle u64 | epoch u32 | clusters u16 | num_levels u16 × clusters
//	decide    handle u64 | epoch u32 | seq u64 | count u16 |
//	          obs × count, each:
//	          utilization f64 | demand_ratio f64 | qos f64 |
//	          cluster_qos f64 | critical u8 (0/1) | level u16
//	decideOK  count u16 | level u16 × count
//	reward    handle u64 | reward f64 [| epoch u32 | seq u64]
//	rewardOK  decisions u64 | rewards u64 | mean_reward f64 | epsilon f64
//	close     handle u64 | epoch u32
//	closeOK   same as rewardOK
//	resume    create without its cohort | eps_now f64 | seq u64 |
//	          decisions u64 | rewards u64 | reward_sum f64 | rng u64 × 4 |
//	          clusters u16 | (prev_demand f64 | last_level u16) × clusters
//	          [| cohort u16]
//	resumeOK  same as createOK
//	error     code u16 | backoff_ms u32 | message bytes
//
// The bracketed tails are newer than their layouts: a create or resume
// without the cohort tail still parses, as CohortDefault, and a reward
// without the epoch/seq tail as Epoch 0, Seq 0, so old clients keep
// working.
//
// The decide, reward and close epoch identifies the server incarnation
// that issued the session handle: after a restart every live handle is
// stale, and the epoch mismatch surfaces as CodeUnknownSession instead of
// silently hitting a recycled handle. The decide seq is the session's decision
// sequence number; a retry after a lost response carries the same seq and
// the server answers from its replay cache instead of computing a second,
// divergent decision. The resume frame re-creates a session from the
// client's last acked state after the server lost it (restart or TTL
// reaping).
//
// The decide count is K×clusters for a multi-period frame: one frame may
// carry K consecutive control periods' observations, period by period
// (period 0's clusters first), and the decideOK answers with K×clusters
// levels in the same order. Seq names the first period; the frame consumes
// K sequence numbers. count must be a positive multiple of the session's
// cluster count — zero is rejected at parse time, a non-multiple by the
// serve layer.
//
// The package is dependency-free (standard library only); the serve layer
// owns the mapping between wire frames and sessions.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// Version is the protocol version this package encodes and accepts.
	// v2 added the payload CRC trailer, the decide epoch+seq, the createOK
	// epoch, the error-frame backoff hint, and the resume frames.
	Version = 2
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 16
	// TrailerSize is the payload CRC32 trailer length appended after every
	// payload.
	TrailerSize = 4
	// MaxPayload bounds the payload length a header may declare; larger
	// prefixes are rejected before any payload byte is read, so a corrupt
	// or hostile length can never drive an oversized allocation or
	// over-read.
	MaxPayload = 1 << 20
)

// Frame types. Requests flow client→server, *OK responses and TError flow
// server→client; the response echoes the request's id.
const (
	TError    byte = 1
	TCreate   byte = 2
	TCreateOK byte = 3
	TDecide   byte = 4
	TDecideOK byte = 5
	TReward   byte = 6
	TRewardOK byte = 7
	TClose    byte = 8
	TCloseOK  byte = 9
	TResume   byte = 10
	TResumeOK byte = 11
)

// ValidType reports whether t is a known frame type.
func ValidType(t byte) bool { return t >= TError && t <= TResumeOK }

// Error codes carried by TError frames, mirroring the HTTP status mapping.
const (
	CodeBadRequest    uint16 = 1
	CodeNoSession     uint16 = 2
	CodeSessionClosed uint16 = 3
	CodeServerClosed  uint16 = 4
	CodeOverloaded    uint16 = 5
	CodeInternal      uint16 = 6
	// CodeUnknownSession: the handle/epoch pair names a session this server
	// incarnation does not know (restart or TTL reaping). Retryable after a
	// resume — the client re-creates the session from its last acked state.
	CodeUnknownSession uint16 = 7
	// CodeBadSeq: the decide or reward sequence number is neither the next
	// one nor a replay of the last; client and server disagree about
	// history, so a retry cannot help.
	CodeBadSeq uint16 = 8
)

// Typed decode errors. Decoders wrap these with context via %w, so callers
// classify with errors.Is and fuzzing can assert that every failure is one
// of them.
var (
	// ErrShortHeader: fewer than HeaderSize bytes where a header belongs.
	ErrShortHeader = errors.New("wire: short header")
	// ErrBadCRC: the header checksum does not cover its bytes — a
	// desynchronized stream or corruption.
	ErrBadCRC = errors.New("wire: header CRC mismatch")
	// ErrBadVersion: the version byte is not Version.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrBadType: the frame type byte names no known frame.
	ErrBadType = errors.New("wire: unknown frame type")
	// ErrOversized: the declared payload length exceeds MaxPayload.
	ErrOversized = errors.New("wire: oversized payload length")
	// ErrTruncated: the payload is shorter than its layout requires.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrBadPayload: the payload is structurally invalid (trailing bytes,
	// non-canonical bool, nonzero reserved field).
	ErrBadPayload = errors.New("wire: malformed payload")
)

// Header is the decoded frame header.
type Header struct {
	Version byte
	Type    byte
	ReqID   uint32
	Len     uint32
}

// PutHeader encodes a header for a payloadLen-byte payload of type typ into
// buf[:HeaderSize], computing the guard CRC. buf must hold at least
// HeaderSize bytes.
func PutHeader(buf []byte, typ byte, reqID uint32, payloadLen int) {
	_ = buf[HeaderSize-1]
	buf[0] = Version
	buf[1] = typ
	buf[2], buf[3] = 0, 0
	binary.LittleEndian.PutUint32(buf[4:8], reqID)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(buf[:12]))
}

// ParseHeader decodes and validates buf[:HeaderSize]. The CRC is checked
// before any field is interpreted, so a corrupted version, type, or length
// surfaces as ErrBadCRC rather than a misparse.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrShortHeader, len(buf))
	}
	if got, want := binary.LittleEndian.Uint32(buf[12:16]), crc32.ChecksumIEEE(buf[:12]); got != want {
		return Header{}, fmt.Errorf("%w: stored %#08x, computed %#08x", ErrBadCRC, got, want)
	}
	h := Header{
		Version: buf[0],
		Type:    buf[1],
		ReqID:   binary.LittleEndian.Uint32(buf[4:8]),
		Len:     binary.LittleEndian.Uint32(buf[8:12]),
	}
	if h.Version != Version {
		return h, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, h.Version, Version)
	}
	if buf[2] != 0 || buf[3] != 0 {
		return h, fmt.Errorf("%w: nonzero reserved header bytes", ErrBadPayload)
	}
	if !ValidType(h.Type) {
		return h, fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	if h.Len > MaxPayload {
		return h, fmt.Errorf("%w: %d bytes (max %d)", ErrOversized, h.Len, MaxPayload)
	}
	return h, nil
}

var zeroHeader [HeaderSize]byte

// BeginFrame resets dst and reserves header space; append the payload to
// the returned slice, then seal it with FinishFrame. The pattern reuses
// the caller's buffer, so a warmed connection encodes frames with zero
// allocations.
func BeginFrame(dst []byte) []byte {
	return append(dst[:0], zeroHeader[:]...)
}

// FinishFrame writes the header (with CRC) over the space BeginFrame
// reserved, then appends the payload CRC32 trailer, for a frame of type
// typ answering reqID. buf must have come from BeginFrame plus payload
// appends. The trailer guards the payload bytes the header CRC does not
// cover, so corruption anywhere in the frame is detected at decode.
func FinishFrame(buf []byte, typ byte, reqID uint32) []byte {
	PutHeader(buf[:HeaderSize], typ, reqID, len(buf)-HeaderSize)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[HeaderSize:]))
}

// ReadFrame reads one frame from r: the header into *hdr, the payload into
// payload (grown only when capacity is short, otherwise reused), then the
// CRC32 trailer, which is verified against the payload before anything is
// returned. It returns the possibly regrown payload slice so callers can
// keep it as their scratch. The header is validated — including the
// MaxPayload bound — before any payload byte is read.
func ReadFrame(r io.Reader, hdr *[HeaderSize]byte, payload []byte) (Header, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, payload, err
	}
	h, err := ParseHeader(hdr[:])
	if err != nil {
		return h, payload, err
	}
	// Payload and trailer arrive in a single read into the shared scratch;
	// reading the trailer into a local array would force it to escape
	// through the io.Reader interface and cost an allocation per frame.
	need := int(h.Len) + TrailerSize
	if cap(payload) < need {
		payload = make([]byte, need)
	}
	payload = payload[:need]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return h, payload, err
	}
	got := binary.LittleEndian.Uint32(payload[h.Len:])
	payload = payload[:h.Len]
	if want := crc32.ChecksumIEEE(payload); got != want {
		return h, payload, fmt.Errorf("%w: payload trailer stored %#08x, computed %#08x", ErrBadCRC, got, want)
	}
	return h, payload, nil
}

// PeekRequest reports whether the next frame buffered in br is complete,
// its type and, for a decide, its observation count, without consuming a
// byte or ever blocking: the test a window runs before it gathers another
// frame. A declared length past MaxPayload counts as complete, since
// ReadFrame rejects it from the header alone. typ is 0 until a whole
// header is buffered; nothing in the header is validated.
func PeekRequest(br *bufio.Reader) (typ byte, obs int, ok bool) {
	// Every Peek below stays within Buffered, so it neither fails nor
	// reads.
	if br.Buffered() < HeaderSize {
		return 0, 0, false
	}
	hdr, _ := br.Peek(HeaderSize)
	typ = hdr[1]
	plen := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if plen > MaxPayload {
		return typ, 0, true
	}
	if br.Buffered() < HeaderSize+plen+TrailerSize {
		return typ, 0, false
	}
	if typ == TDecide && plen >= decideReqBase {
		pk, _ := br.Peek(HeaderSize + decideReqBase)
		obs = int(binary.LittleEndian.Uint16(pk[HeaderSize+decideReqBase-2:]))
	}
	return typ, obs, true
}

// Obs is one cluster's telemetry for one control period — the subset of
// the simulator's observation a remote device reports. It is the serve
// layer's Observation on both transports: encoded here as a fixed 35-byte
// record, and as a JSON object under these tags.
type Obs struct {
	Utilization float64 `json:"utilization"`
	DemandRatio float64 `json:"demand_ratio"`
	QoS         float64 `json:"qos"`
	ClusterQoS  float64 `json:"cluster_qos"`
	Critical    bool    `json:"critical"`
	Level       int     `json:"level"`
}

const obsSize = 4*8 + 1 + 2

// CreateReq asks the server to open a device session. Cohort is the
// session's A/B arm on a learning server, one of the Cohort codes; the
// serve layer refuses any other value.
type CreateReq struct {
	Epsilon      float64
	EpsilonMin   float64
	EpsilonDecay float64
	Seed         uint64
	Cohort       uint16
}

// Cohort codes for CreateReq.Cohort.
const (
	CohortDefault  uint16 = 0 // no arm named: the server's default, learning
	CohortLearning uint16 = 1
	CohortFrozen   uint16 = 2
)

const (
	createBodySize = 4 * 8 // the create layout before its cohort tail
	createReqSize  = createBodySize + 2
)

// AppendCreateReq appends r's payload encoding to dst.
func AppendCreateReq(dst []byte, r CreateReq) []byte {
	return binary.LittleEndian.AppendUint16(appendCreateBody(dst, r), r.Cohort)
}

func appendCreateBody(dst []byte, r CreateReq) []byte {
	dst = appendF64(dst, r.Epsilon)
	dst = appendF64(dst, r.EpsilonMin)
	dst = appendF64(dst, r.EpsilonDecay)
	return binary.LittleEndian.AppendUint64(dst, r.Seed)
}

// ParseCreateReq decodes p into r. Both the 34-byte layout and the legacy
// 32-byte layout without the cohort (CohortDefault) are accepted.
func ParseCreateReq(p []byte, r *CreateReq) error {
	switch len(p) {
	case createBodySize:
		r.Cohort = CohortDefault
	case createReqSize:
		r.Cohort = binary.LittleEndian.Uint16(p[createBodySize:])
	default:
		return exactLen(p, createReqSize)
	}
	parseCreateBody(p, r)
	return nil
}

func parseCreateBody(p []byte, r *CreateReq) {
	r.Epsilon = getF64(p[0:])
	r.EpsilonMin = getF64(p[8:])
	r.EpsilonDecay = getF64(p[16:])
	r.Seed = binary.LittleEndian.Uint64(p[24:])
}

// CreateOK answers a create (and a resume): the session handle, the
// issuing server incarnation's epoch, and the served chip's per-cluster
// OPP counts.
type CreateOK struct {
	Handle    uint64
	Epoch     uint32
	NumLevels []int
}

const createOKBase = 8 + 4 + 2

// AppendCreateOK appends the payload encoding to dst.
func AppendCreateOK(dst []byte, handle uint64, epoch uint32, numLevels []int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, handle)
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(numLevels)))
	for _, n := range numLevels {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	}
	return dst
}

// ParseCreateOK decodes p into r, reusing r.NumLevels' backing array.
func ParseCreateOK(p []byte, r *CreateOK) error {
	if len(p) < createOKBase {
		return fmt.Errorf("%w: createOK needs %d bytes, got %d", ErrTruncated, createOKBase, len(p))
	}
	r.Handle = binary.LittleEndian.Uint64(p[0:])
	r.Epoch = binary.LittleEndian.Uint32(p[8:])
	n := int(binary.LittleEndian.Uint16(p[12:]))
	if err := exactLen(p, createOKBase+2*n); err != nil {
		return err
	}
	r.NumLevels = fitInts(r.NumLevels, n)
	for i := 0; i < n; i++ {
		r.NumLevels[i] = int(binary.LittleEndian.Uint16(p[createOKBase+2*i:]))
	}
	return nil
}

// DecideReq carries one or more control periods' observations for a
// session (len(Obs) = K×clusters, period by period). Epoch names the
// server incarnation the handle came from; Seq is the first period's
// decision sequence number (see the package comment). Seq 0 is the legacy
// no-dedup path.
type DecideReq struct {
	Handle uint64
	Epoch  uint32
	Seq    uint64
	Obs    []Obs
}

const decideReqBase = 8 + 4 + 8 + 2

// AppendDecideReq appends the payload encoding to dst. Critical encodes as
// 0/1; Level as its low 16 bits (the server validates range).
func AppendDecideReq(dst []byte, handle uint64, epoch uint32, seq uint64, obs []Obs) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, handle)
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(obs)))
	for i := range obs {
		o := &obs[i]
		dst = appendF64(dst, o.Utilization)
		dst = appendF64(dst, o.DemandRatio)
		dst = appendF64(dst, o.QoS)
		dst = appendF64(dst, o.ClusterQoS)
		if o.Critical {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(o.Level))
	}
	return dst
}

// ParseDecideReq decodes p into r, reusing r.Obs' backing array. The
// critical byte must be canonical (0 or 1) so encoding is bijective.
func ParseDecideReq(p []byte, r *DecideReq) error {
	if len(p) < decideReqBase {
		return fmt.Errorf("%w: decide needs %d bytes, got %d", ErrTruncated, decideReqBase, len(p))
	}
	r.Handle = binary.LittleEndian.Uint64(p[0:])
	r.Epoch = binary.LittleEndian.Uint32(p[8:])
	r.Seq = binary.LittleEndian.Uint64(p[12:])
	n := int(binary.LittleEndian.Uint16(p[20:]))
	if n == 0 {
		return fmt.Errorf("%w: decide carries no observations", ErrBadPayload)
	}
	// Bound count before the size product: a hostile count must surface as
	// a payload error, never as arithmetic past MaxPayload (or, on a
	// 32-bit int, an overflowed expected length).
	if n > (MaxPayload-decideReqBase)/obsSize {
		return fmt.Errorf("%w: decide count %d exceeds max payload", ErrBadPayload, n)
	}
	if err := exactLen(p, decideReqBase+obsSize*n); err != nil {
		return err
	}
	r.Obs = fitObs(r.Obs, n)
	for i := 0; i < n; i++ {
		rec := p[decideReqBase+obsSize*i:]
		o := &r.Obs[i]
		o.Utilization = getF64(rec[0:])
		o.DemandRatio = getF64(rec[8:])
		o.QoS = getF64(rec[16:])
		o.ClusterQoS = getF64(rec[24:])
		switch rec[32] {
		case 0:
			o.Critical = false
		case 1:
			o.Critical = true
		default:
			return fmt.Errorf("%w: critical byte %d (want 0 or 1)", ErrBadPayload, rec[32])
		}
		o.Level = int(binary.LittleEndian.Uint16(rec[33:]))
	}
	return nil
}

// DecideOK carries the chosen OPP level per observation — K×clusters
// levels for a K-period decide, in the request's period-by-period order.
type DecideOK struct {
	Levels []int
}

// AppendDecideOK appends the payload encoding to dst.
func AppendDecideOK(dst []byte, levels []int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(levels)))
	for _, l := range levels {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(l))
	}
	return dst
}

// ParseDecideOK decodes p into r, reusing r.Levels' backing array.
func ParseDecideOK(p []byte, r *DecideOK) error {
	if len(p) < 2 {
		return fmt.Errorf("%w: decideOK needs 2 bytes, got %d", ErrTruncated, len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[0:]))
	if n == 0 {
		return fmt.Errorf("%w: decideOK carries no levels", ErrBadPayload)
	}
	if err := exactLen(p, 2+2*n); err != nil {
		return err
	}
	r.Levels = fitInts(r.Levels, n)
	for i := 0; i < n; i++ {
		r.Levels[i] = int(binary.LittleEndian.Uint16(p[2+2*i:]))
	}
	return nil
}

// RewardReq reports a device-computed reward for a session. Epoch/Seq
// extend the decide dedup contract to rewards: Epoch names the server
// incarnation the handle came from, Seq is the session's reward sequence
// number (the count of rewards the client has had acked, plus one), and a
// retry after a lost ack carries the same Seq so the server answers from
// the ledger instead of double-counting — and, with online learning on,
// instead of double-applying a Q-update. Seq 0 is the legacy no-dedup
// path; the 16-byte v2 payload without the epoch/seq tail still parses
// (as Epoch 0, Seq 0) so old clients keep working.
type RewardReq struct {
	Handle uint64
	Reward float64
	Epoch  uint32
	Seq    uint64
}

const (
	rewardReqSizeLegacy = 16
	rewardReqSize       = rewardReqSizeLegacy + 4 + 8
)

// AppendRewardReq appends the payload encoding to dst (the tagged 28-byte
// form).
func AppendRewardReq(dst []byte, r RewardReq) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Handle)
	dst = appendF64(dst, r.Reward)
	dst = binary.LittleEndian.AppendUint32(dst, r.Epoch)
	return binary.LittleEndian.AppendUint64(dst, r.Seq)
}

// ParseRewardReq decodes p into r. Both the tagged 28-byte layout and the
// legacy 16-byte layout (Epoch/Seq zero) are accepted.
func ParseRewardReq(p []byte, r *RewardReq) error {
	switch len(p) {
	case rewardReqSizeLegacy:
		r.Epoch, r.Seq = 0, 0
	case rewardReqSize:
		r.Epoch = binary.LittleEndian.Uint32(p[16:])
		r.Seq = binary.LittleEndian.Uint64(p[20:])
	default:
		return exactLen(p, rewardReqSize)
	}
	r.Handle = binary.LittleEndian.Uint64(p[0:])
	r.Reward = getF64(p[8:])
	return nil
}

// CloseReq closes a session. Epoch names the server incarnation the
// handle came from, as a decide's does: handles restart at 1 in every
// incarnation, so a close without it could close another device's
// session. Epoch 0 is the unchecked path.
type CloseReq struct {
	Handle uint64
	Epoch  uint32
}

const closeReqSize = 8 + 4

// AppendCloseReq appends the payload encoding to dst.
func AppendCloseReq(dst []byte, r CloseReq) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Handle)
	return binary.LittleEndian.AppendUint32(dst, r.Epoch)
}

// ParseCloseReq decodes p into r.
func ParseCloseReq(p []byte, r *CloseReq) error {
	if err := exactLen(p, closeReqSize); err != nil {
		return err
	}
	r.Handle = binary.LittleEndian.Uint64(p[0:])
	r.Epoch = binary.LittleEndian.Uint32(p[8:])
	return nil
}

// Stats is the per-session ledger returned by reward and close frames.
type Stats struct {
	Decisions  uint64
	Rewards    uint64
	MeanReward float64
	Epsilon    float64
}

const statsSize = 4 * 8

// AppendStats appends the payload encoding to dst.
func AppendStats(dst []byte, s Stats) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Decisions)
	dst = binary.LittleEndian.AppendUint64(dst, s.Rewards)
	dst = appendF64(dst, s.MeanReward)
	return appendF64(dst, s.Epsilon)
}

// ParseStats decodes p into s.
func ParseStats(p []byte, s *Stats) error {
	if err := exactLen(p, statsSize); err != nil {
		return err
	}
	s.Decisions = binary.LittleEndian.Uint64(p[0:])
	s.Rewards = binary.LittleEndian.Uint64(p[8:])
	s.MeanReward = getF64(p[16:])
	s.Epsilon = getF64(p[24:])
	return nil
}

// ErrorFrame is the typed failure answer. BackoffMs is the server's retry
// hint (how long the client should wait before retrying, in milliseconds;
// 0 means no hint) — meaningful for CodeOverloaded, where it tracks the
// server's recent decide time. Msg aliases the payload buffer — copy
// it before the next frame read if it must outlive the buffer.
type ErrorFrame struct {
	Code      uint16
	BackoffMs uint32
	Msg       []byte
}

const errorFrameBase = 2 + 4

// AppendError appends the payload encoding to dst.
func AppendError(dst []byte, code uint16, backoffMs uint32, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, code)
	dst = binary.LittleEndian.AppendUint32(dst, backoffMs)
	return append(dst, msg...)
}

// ParseError decodes p into e. Msg is a zero-copy view into p.
func ParseError(p []byte, e *ErrorFrame) error {
	if len(p) < errorFrameBase {
		return fmt.Errorf("%w: error frame needs %d bytes, got %d", ErrTruncated, errorFrameBase, len(p))
	}
	e.Code = binary.LittleEndian.Uint16(p[0:])
	e.BackoffMs = binary.LittleEndian.Uint32(p[2:])
	e.Msg = p[errorFrameBase:]
	return nil
}

// ResumeReq re-creates a session from the client's last acked state after
// the server lost it (restart or TTL reaping). Opts are the original
// session options; EpsNow is the current decayed exploration rate; Rng is
// the exploration generator's exported state (all-zero means "reseed from
// Opts.Seed"); Seq/Decisions/Rewards/RewardSum restore the ledger;
// PrevDemand is the per-cluster demand-trend history; LastLevels is the
// decision the client last acked (the replay cache for Seq), meaningful
// only when Seq > 0.
type ResumeReq struct {
	Opts       CreateReq
	EpsNow     float64
	Seq        uint64
	Decisions  uint64
	Rewards    uint64
	RewardSum  float64
	Rng        [4]uint64
	PrevDemand []float64
	LastLevels []int
}

const (
	resumeReqBase    = createBodySize + 8 + 8 + 8 + 8 + 8 + 4*8 + 2
	resumeClusterRec = 8 + 2
)

// AppendResumeReq appends the payload encoding to dst. PrevDemand and
// LastLevels must have equal length (the cluster count).
func AppendResumeReq(dst []byte, r *ResumeReq) []byte {
	dst = appendCreateBody(dst, r.Opts)
	dst = appendF64(dst, r.EpsNow)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.Decisions)
	dst = binary.LittleEndian.AppendUint64(dst, r.Rewards)
	dst = appendF64(dst, r.RewardSum)
	for _, w := range r.Rng {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.PrevDemand)))
	for i, d := range r.PrevDemand {
		dst = appendF64(dst, d)
		lvl := 0
		if i < len(r.LastLevels) {
			lvl = r.LastLevels[i]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(lvl))
	}
	return binary.LittleEndian.AppendUint16(dst, r.Opts.Cohort)
}

// ParseResumeReq decodes p into r, reusing the slices' backing arrays.
// Both the layout with the cohort tail and the legacy one without it
// (CohortDefault) are accepted.
func ParseResumeReq(p []byte, r *ResumeReq) error {
	if len(p) < resumeReqBase {
		return fmt.Errorf("%w: resume needs %d bytes, got %d", ErrTruncated, resumeReqBase, len(p))
	}
	parseCreateBody(p, &r.Opts)
	off := createBodySize
	r.EpsNow = getF64(p[off:])
	r.Seq = binary.LittleEndian.Uint64(p[off+8:])
	r.Decisions = binary.LittleEndian.Uint64(p[off+16:])
	r.Rewards = binary.LittleEndian.Uint64(p[off+24:])
	r.RewardSum = getF64(p[off+32:])
	for i := range r.Rng {
		r.Rng[i] = binary.LittleEndian.Uint64(p[off+40+8*i:])
	}
	n := int(binary.LittleEndian.Uint16(p[resumeReqBase-2:]))
	switch legacy := resumeReqBase + resumeClusterRec*n; len(p) {
	case legacy:
		r.Opts.Cohort = CohortDefault
	case legacy + 2:
		r.Opts.Cohort = binary.LittleEndian.Uint16(p[legacy:])
	default:
		return exactLen(p, legacy+2)
	}
	r.PrevDemand = fitF64s(r.PrevDemand, n)
	r.LastLevels = fitInts(r.LastLevels, n)
	for i := 0; i < n; i++ {
		rec := p[resumeReqBase+resumeClusterRec*i:]
		r.PrevDemand[i] = getF64(rec[0:])
		r.LastLevels[i] = int(binary.LittleEndian.Uint16(rec[8:]))
	}
	return nil
}

// exactLen distinguishes a short payload (ErrTruncated) from trailing
// garbage (ErrBadPayload).
func exactLen(p []byte, want int) error {
	if len(p) < want {
		return fmt.Errorf("%w: %d bytes, layout needs %d", ErrTruncated, len(p), want)
	}
	if len(p) > want {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(p)-want)
	}
	return nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func getF64(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func fitInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func fitObs(s []Obs, n int) []Obs {
	if cap(s) < n {
		return make([]Obs, n)
	}
	return s[:n]
}

func fitF64s(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
