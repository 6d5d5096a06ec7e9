package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"rlpm/internal/rng"
)

// checkpointSnapshot builds a small but non-trivial snapshot: two clusters
// with different OPP counts, deterministic pseudo-random table values, and
// a few special floats (zero, negative, subnormal, NaN) to pin the
// bit-exact round trip.
func checkpointSnapshot(t *testing.T) Snapshot {
	t.Helper()
	st := StateConfig{LoadBins: 2, QoSBins: 2, TrendBins: 3}
	s := Snapshot{State: st}
	r := rng.New(7)
	for c, levels := range []int{3, 5} {
		tab := make([][]float64, st.States(levels))
		for i := range tab {
			tab[i] = make([]float64, levels)
			for j := range tab[i] {
				tab[i][j] = r.Float64()*4 - 2
			}
		}
		tab[0][0] = 0
		tab[1][0] = math.Copysign(0, -1)
		tab[2][0] = math.SmallestNonzeroFloat64
		if c == 1 {
			tab[3][0] = math.NaN()
		}
		s.Tables = append(s.Tables, tab)
	}
	return s
}

// encodeCheckpoint writes s's tables, packed into an arena, in the
// checkpoint format.
func encodeCheckpoint(t testing.TB, s Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s.State, NewFlatTables(s.Tables)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// readCheckpointBytes decodes raw with ReadCheckpoint, sized by its
// length, and returns it in nested form.
func readCheckpointBytes(raw []byte) (Snapshot, error) {
	st, f, err := ReadCheckpoint(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{State: st, Tables: f.Tables()}, nil
}

// snapshotsBitEqual compares snapshots with bit-level float equality, so
// NaN payloads and signed zeros count as preserved.
func snapshotsBitEqual(a, b Snapshot) bool {
	if a.State != b.State || len(a.Tables) != len(b.Tables) {
		return false
	}
	for c := range a.Tables {
		if len(a.Tables[c]) != len(b.Tables[c]) {
			return false
		}
		for i := range a.Tables[c] {
			if len(a.Tables[c][i]) != len(b.Tables[c][i]) {
				return false
			}
			for j := range a.Tables[c][i] {
				if math.Float64bits(a.Tables[c][i][j]) != math.Float64bits(b.Tables[c][i][j]) {
					return false
				}
			}
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := checkpointSnapshot(t)
	enc := encodeCheckpoint(t, want)
	got, err := readCheckpointBytes(enc)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if !snapshotsBitEqual(want, got) {
		t.Fatal("decoded snapshot differs from encoded one")
	}
	// Canonical form: re-encoding the decoded snapshot reproduces the bytes.
	re := encodeCheckpoint(t, got)
	if !bytes.Equal(enc, re) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

// writeCounter records the length of each Write a checkpoint takes.
type writeCounter struct {
	bytes.Buffer
	writes []int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteCheckpointWrites pins the save path's write calls: the bytes
// go out in buffer-sized writes and the CRC rides in the last one, so a
// checkpoint smaller than the buffer costs one write.
func TestWriteCheckpointWrites(t *testing.T) {
	small := Snapshot{State: StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}, Tables: [][][]float64{{{1, 2}, {3, 4}}}}
	for _, c := range []struct {
		name   string
		snap   Snapshot
		writes int
	}{
		{"one buffer", small, 1},
		{"two buffers", checkpointSnapshot(t), 2},
	} {
		var w writeCounter
		if err := WriteCheckpoint(&w, c.snap.State, NewFlatTables(c.snap.Tables)); err != nil {
			t.Fatalf("%s: WriteCheckpoint: %v", c.name, err)
		}
		if !bytes.Equal(w.Bytes(), encodeCheckpoint(t, c.snap)) {
			t.Fatalf("%s: the writes do not add up to the checkpoint", c.name)
		}
		if len(w.writes) != c.writes {
			t.Errorf("%s: %d bytes took writes of %v bytes, want %d writes", c.name, w.Len(), w.writes, c.writes)
		}
		for _, n := range w.writes {
			if n > checkpointChunk {
				t.Errorf("%s: a %d-byte write is larger than the %d-byte buffer", c.name, n, checkpointChunk)
			}
		}
	}
}

// TestCheckpointRoundTripFromPolicy streams a trained policy's arena
// through the codec and hydrates a policy from what comes back.
func TestCheckpointRoundTripFromPolicy(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	pst, f, err := p.Tables()
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, pst, f); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	st, got, err := ReadCheckpoint(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if st != DefaultConfig().State || len(got.arena) != len(f.arena) || !slices.Equal(got.off, f.off) || !slices.Equal(got.width, f.width) {
		t.Fatalf("decoded shape %+v %v %v, want %+v %v %v", st, got.off, got.width, DefaultConfig().State, f.off, f.width)
	}
	for i, v := range f.arena {
		if math.Float64bits(got.arena[i]) != math.Float64bits(v) {
			t.Fatalf("arena slot %d did not round-trip bit-exactly", i)
		}
	}
	if _, err := PolicyFromTables(DefaultConfig(), st, got); err != nil {
		t.Fatalf("PolicyFromTables(decoded): %v", err)
	}
}

// TestCheckpointFlippedByteRejected is the integrity property: flipping any
// single byte of a valid checkpoint must make decoding fail with one of the
// typed errors, never succeed and never panic. (A flip in the version field
// surfaces as ErrCheckpointVersion; everywhere else the CRC catches it.)
func TestCheckpointFlippedByteRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		_, err := readCheckpointBytes(mut)
		if err == nil {
			t.Fatalf("decode succeeded with byte %d flipped", i)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("byte %d: error %v is not a typed checkpoint error", i, err)
		}
	}
}

// TestCheckpointTruncationRejected cuts a checkpoint short two ways: a
// prefix whose size says so, and one that ends before the size it was
// given.
func TestCheckpointTruncationRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	for _, n := range []int{0, 1, 7, 8, 11, 12, checkpointHeaderLen, checkpointHeaderLen + 4, len(enc) - 1} {
		if _, err := readCheckpointBytes(enc[:n]); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrCheckpointCorrupt", n, err)
		}
		if _, _, err := ReadCheckpoint(bytes.NewReader(enc[:n]), int64(len(enc))); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("prefix of %d bytes sized %d: got %v, want ErrCheckpointCorrupt", n, len(enc), err)
		}
	}
}

// TestCheckpointTrailingGarbageRejected appends a byte two ways: inside
// the size given, and past it.
func TestCheckpointTrailingGarbageRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	long := append(append([]byte(nil), enc...), 0xAA)
	if _, err := readCheckpointBytes(long); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCheckpointCorrupt", err)
	}
	if _, _, err := ReadCheckpoint(bytes.NewReader(long), int64(len(enc))); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("input longer than its size: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointUnknownVersionRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	mut := append([]byte(nil), enc...)
	mut[8] = 0x7F // version low byte
	_, err := readCheckpointBytes(mut)
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version: got %v, want ErrCheckpointVersion", err)
	}
}

// rawCheckpoint is a well-formed checkpoint, CRC included, of one
// all-zero table of the given shape under st, written byte by byte so it
// can hold what WriteCheckpoint refuses to write.
func rawCheckpoint(st StateConfig, states, actions int) []byte {
	raw := append([]byte(nil), checkpointMagic[:]...)
	for _, v := range []int{CheckpointVersion, st.LoadBins, st.QoSBins, st.TrendBins, 1, states, actions} {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
	}
	raw = append(raw, make([]byte, 8*states*actions)...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
}

// TestCheckpointTooWideRejected pins the one verdict ReadCheckpoint does
// not share with the whole-image reference: a table wider than
// MaxFlatActions, which the arena cannot pack, is corrupt.
func TestCheckpointTooWideRejected(t *testing.T) {
	st := StateConfig{LoadBins: 1, QoSBins: 1, TrendBins: 1}
	w := MaxFlatActions + 1
	raw := rawCheckpoint(st, st.States(w), w)
	if _, err := decodeCheckpointBytes(raw); err != nil {
		t.Fatalf("reference refused the wide checkpoint: %v", err)
	}
	if _, err := readCheckpointBytes(raw); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("wide table: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointWrappingStateConfigRejected feeds a checkpoint whose
// recorded bins wrap StateConfig.States: 859019674 × 2147418113 × 1 × 250
// is 100 modulo 2^64, so a 100-state table of 250 actions matches the
// shape check. Loaded, it would index past its table on the first decide;
// the bound on bins makes it corrupt.
func TestCheckpointWrappingStateConfigRejected(t *testing.T) {
	st := StateConfig{LoadBins: 859019674, QoSBins: 2147418113, TrendBins: 1}
	raw := rawCheckpoint(st, 100, 250)
	if _, err := readCheckpointBytes(raw); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("wrapping state config: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointEncodeRejectsMalformedSnapshots(t *testing.T) {
	good := checkpointSnapshot(t)
	cases := map[string]func(Snapshot) Snapshot{
		"no tables":  func(s Snapshot) Snapshot { s.Tables = nil; return s },
		"bad config": func(s Snapshot) Snapshot { s.State.LoadBins = 0; return s },
		"state count mismatch": func(s Snapshot) Snapshot {
			s.Tables = append([][][]float64{}, s.Tables...)
			s.Tables[0] = s.Tables[0][:len(s.Tables[0])-1]
			return s
		},
		"ragged rows": func(s Snapshot) Snapshot {
			tab := make([][]float64, len(s.Tables[0]))
			copy(tab, s.Tables[0])
			tab[1] = tab[1][:1]
			s.Tables = [][][]float64{tab, s.Tables[1]}
			return s
		},
	}
	for name, mutate := range cases {
		s := mutate(good)
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, s.State, NewFlatTables(s.Tables)); err == nil {
			t.Errorf("%s: encode succeeded", name)
		}
	}
}

// FuzzCheckpointDecode drives ReadCheckpoint with arbitrary bytes beside
// the whole-image reference decoder. It must never panic, and every
// rejection must be a typed error. It must give the reference's verdict
// and tables, bit for bit, except that it refuses tables wider than
// MaxFlatActions; an accepted input's arena is never larger than the
// input and re-encodes to exactly the input (canonical form), and the
// same bytes read with a size one short or one long are corrupt.
func FuzzCheckpointDecode(f *testing.F) {
	st := StateConfig{LoadBins: 2, QoSBins: 1, TrendBins: 1}
	tiny := Snapshot{State: st, Tables: [][][]float64{{{0.5, -1}, {1, 2}, {3, 4}, {0, 0}}}}
	f.Add(encodeCheckpoint(f, tiny))
	f.Add([]byte{})
	f.Add([]byte("RLPMCKPT"))
	f.Add(bytes.Repeat([]byte{0}, checkpointHeaderLen+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, tables, err := ReadCheckpoint(bytes.NewReader(data), int64(len(data)))
		ref, refErr := decodeCheckpointBytes(data)
		if err != nil && !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if errors.Is(err, ErrCheckpointVersion) != errors.Is(refErr, ErrCheckpointVersion) {
			t.Fatalf("version verdict differs: ReadCheckpoint %v, reference %v", err, refErr)
		}
		if (err == nil) != (refErr == nil) {
			if err != nil && refErr == nil && tooWide(ref) {
				return
			}
			t.Fatalf("verdict differs: ReadCheckpoint %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if 8*len(tables.arena) > len(data) {
			t.Fatalf("arena of %d values from %d bytes", len(tables.arena), len(data))
		}
		if !snapshotsBitEqual(ref, Snapshot{State: st, Tables: tables.Tables()}) {
			t.Fatal("ReadCheckpoint's tables differ from the reference's")
		}
		var re bytes.Buffer
		if err := WriteCheckpoint(&re, st, tables); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatal("accepted checkpoint is not in canonical form")
		}
		if _, _, err := ReadCheckpoint(bytes.NewReader(data[:len(data)-1]), int64(len(data))); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("input shorter than its size: %v, want ErrCheckpointCorrupt", err)
		}
		long := append(data[:len(data):len(data)], 0)
		if _, _, err := ReadCheckpoint(bytes.NewReader(long), int64(len(data))); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("input longer than its size: %v, want ErrCheckpointCorrupt", err)
		}
	})
}

// tooWide reports whether s holds a table wider than MaxFlatActions.
func tooWide(s Snapshot) bool {
	for _, t := range s.Tables {
		if len(t[0]) > MaxFlatActions {
			return true
		}
	}
	return false
}

// decodeCheckpointBytes is the whole-image decoder ReadCheckpoint replaced,
// kept as FuzzCheckpointDecode's reference: it parses a checkpoint held in
// memory into nested tables, checking the CRC first and the structure
// after. Its verdict and tables are ReadCheckpoint's, bit for bit, except
// that it accepts tables wider than MaxFlatActions.
func decodeCheckpointBytes(raw []byte) (Snapshot, error) {
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

// takeU32 consumes a little-endian uint32 from the front of *p. Callers
// guarantee at least 4 bytes remain (the fixed header is length-checked up
// front; variable sections check before each pair).
func takeU32(p *[]byte) uint32 {
	v := binary.LittleEndian.Uint32((*p)[:4])
	*p = (*p)[4:]
	return v
}
