package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint format: the durable, versioned image of a trained policy —
// the one policy file format: pmtrain saves and loads it, and the serving
// layer (internal/serve, cmd/pmserve) persists and restores it. It is a
// fixed little-endian layout with a magic, an explicit version, and a
// trailing CRC32, so a loader can reject a truncated upload, a bit-rotted
// disk block, or a file written by an incompatible release with a typed
// error instead of serving garbage Q-values.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "RLPMCKPT"
//	8       4     version (currently 1)
//	12      4     LoadBins
//	16      4     QoSBins
//	20      4     TrendBins
//	24      4     table count
//	...           per table: states uint32, actions uint32,
//	              then states×actions float64 bit patterns (row-major)
//	end-4   4     CRC32 (IEEE) of every preceding byte
//
// Versioning rules: readers accept exactly the versions they know; any
// other version fails with ErrCheckpointVersion (never a best-effort
// parse). Layout changes — new fields, different table encoding — bump the
// version. Additions that can live entirely inside the existing fields do
// not.
const CheckpointVersion = 1

// checkpointMagic identifies a checkpoint file.
var checkpointMagic = [8]byte{'R', 'L', 'P', 'M', 'C', 'K', 'P', 'T'}

// ErrCheckpointCorrupt is wrapped by every decode failure caused by the
// bytes themselves: bad magic, truncation, checksum mismatch, or a payload
// whose structure is inconsistent (e.g. a table shape that contradicts the
// recorded state configuration).
var ErrCheckpointCorrupt = errors.New("core: corrupt checkpoint")

// ErrCheckpointVersion is wrapped when the file is a well-formed checkpoint
// of a version this binary does not speak.
var ErrCheckpointVersion = errors.New("core: unsupported checkpoint version")

// checkpointHeaderLen is magic + version + 3 state-config fields + count.
const checkpointHeaderLen = 8 + 4 + 4*3 + 4

// EncodeCheckpoint writes the snapshot in the checkpoint format. The
// encoding is canonical: equal snapshots produce identical bytes (float64
// values are stored as their exact bit patterns, so even NaN payloads
// round-trip).
func (s Snapshot) EncodeCheckpoint(w io.Writer) error {
	if err := s.validateForCheckpoint(); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	putU32(&buf, CheckpointVersion)
	putU32(&buf, uint32(s.State.LoadBins))
	putU32(&buf, uint32(s.State.QoSBins))
	putU32(&buf, uint32(s.State.TrendBins))
	putU32(&buf, uint32(len(s.Tables)))
	for _, t := range s.Tables {
		putU32(&buf, uint32(len(t)))
		putU32(&buf, uint32(len(t[0])))
		for _, row := range t {
			for _, v := range row {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				buf.Write(b[:])
			}
		}
	}
	putU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	_, err := w.Write(buf.Bytes())
	return err
}

// validateForCheckpoint rejects snapshots the canonical layout cannot
// represent: only consistent rectangular tables whose state count matches
// the recorded configuration have a unique encoding.
func (s Snapshot) validateForCheckpoint() error {
	if err := s.State.Validate(); err != nil {
		return err
	}
	if len(s.Tables) == 0 {
		return fmt.Errorf("core: checkpoint needs at least one table")
	}
	for c, t := range s.Tables {
		if len(t) == 0 || len(t[0]) == 0 {
			return fmt.Errorf("core: checkpoint table %d is empty", c)
		}
		actions := len(t[0])
		if len(t) != s.State.States(actions) {
			return fmt.Errorf("core: checkpoint table %d has %d states, config %+v with %d actions needs %d",
				c, len(t), s.State, actions, s.State.States(actions))
		}
		for r, row := range t {
			if len(row) != actions {
				return fmt.Errorf("core: checkpoint table %d row %d has %d actions, row 0 has %d", c, r, len(row), actions)
			}
		}
	}
	return nil
}

// DecodeCheckpointBytes parses a checkpoint image written by
// EncodeCheckpoint, for callers that hold the whole file (a sized
// os.ReadFile). Any corruption — wrong magic, truncation, flipped bits
// (checksum), trailing garbage, or a structurally inconsistent payload —
// fails with an error wrapping ErrCheckpointCorrupt; a clean file of an
// unknown version fails with ErrCheckpointVersion. It never panics on
// arbitrary input, its allocations are bounded by the input length, and
// the returned tables do not alias raw.
func DecodeCheckpointBytes(raw []byte) (Snapshot, error) {
	if len(raw) < checkpointHeaderLen+4 {
		return Snapshot{}, fmt.Errorf("%w: %d bytes is shorter than the minimal checkpoint", ErrCheckpointCorrupt, len(raw))
	}
	if !bytes.Equal(raw[:8], checkpointMagic[:]) {
		return Snapshot{}, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != CheckpointVersion {
		return Snapshot{}, fmt.Errorf("%w: file is version %d, this build reads %d", ErrCheckpointVersion, v, CheckpointVersion)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return Snapshot{}, fmt.Errorf("%w: checksum %#x != computed %#x", ErrCheckpointCorrupt, got, want)
	}

	p := body[12:]
	var s Snapshot
	s.State.LoadBins = int(int32(takeU32(&p)))
	s.State.QoSBins = int(int32(takeU32(&p)))
	s.State.TrendBins = int(int32(takeU32(&p)))
	if err := s.State.Validate(); err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	count := takeU32(&p)
	for c := uint32(0); c < count; c++ {
		if len(p) < 8 {
			return Snapshot{}, fmt.Errorf("%w: truncated at table %d header", ErrCheckpointCorrupt, c)
		}
		states, actions := takeU32(&p), takeU32(&p)
		if states == 0 || actions == 0 {
			return Snapshot{}, fmt.Errorf("%w: table %d has shape %d×%d", ErrCheckpointCorrupt, c, states, actions)
		}
		// The state count is redundant with the configuration; enforcing the
		// relation rejects structurally inconsistent payloads early and caps
		// the allocation below at what the remaining bytes can actually hold.
		if int(states) != s.State.States(int(actions)) {
			return Snapshot{}, fmt.Errorf("%w: table %d claims %d states for %d actions, config %+v needs %d",
				ErrCheckpointCorrupt, c, states, actions, s.State, s.State.States(int(actions)))
		}
		words := uint64(states) * uint64(actions)
		if uint64(len(p)) < words*8 {
			return Snapshot{}, fmt.Errorf("%w: table %d needs %d bytes, %d remain", ErrCheckpointCorrupt, c, words*8, len(p))
		}
		t := make([][]float64, states)
		flat := make([]float64, words)
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[words*8:]
		for i := range t {
			t[i] = flat[uint64(i)*uint64(actions) : (uint64(i)+1)*uint64(actions) : (uint64(i)+1)*uint64(actions)]
		}
		s.Tables = append(s.Tables, t)
	}
	if len(p) != 0 {
		return Snapshot{}, fmt.Errorf("%w: %d trailing bytes after last table", ErrCheckpointCorrupt, len(p))
	}
	if len(s.Tables) == 0 {
		return Snapshot{}, fmt.Errorf("%w: checkpoint has no tables", ErrCheckpointCorrupt)
	}
	return s, nil
}

func putU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

// takeU32 consumes a little-endian uint32 from the front of *p. Callers
// guarantee at least 4 bytes remain (the fixed header is length-checked up
// front; variable sections check before each pair).
func takeU32(p *[]byte) uint32 {
	v := binary.LittleEndian.Uint32((*p)[:4])
	*p = (*p)[4:]
	return v
}
