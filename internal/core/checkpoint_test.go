package core

import (
	"bytes"
	"errors"
	"math"
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

func encodeCheckpoint(t *testing.T, s Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeCheckpoint(&buf); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	return buf.Bytes()
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
	got, err := DecodeCheckpoint(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
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

func TestCheckpointRoundTripFromPolicy(t *testing.T) {
	p := MustPolicy(DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Decide(twoClusterObs(i%8, i%9))
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	enc := encodeCheckpoint(t, snap)
	got, err := DecodeCheckpoint(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if !snapshotsBitEqual(snap, got) {
		t.Fatal("trained-policy snapshot did not round-trip bit-exactly")
	}
	if _, err := PolicyFromSnapshot(DefaultConfig(), got); err != nil {
		t.Fatalf("PolicyFromSnapshot(decoded): %v", err)
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
		_, err := DecodeCheckpoint(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("decode succeeded with byte %d flipped", i)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("byte %d: error %v is not a typed checkpoint error", i, err)
		}
	}
}

func TestCheckpointTruncationRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	for _, n := range []int{0, 1, 7, 8, 11, 12, checkpointHeaderLen, checkpointHeaderLen + 4, len(enc) - 1} {
		_, err := DecodeCheckpoint(bytes.NewReader(enc[:n]))
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrCheckpointCorrupt", n, err)
		}
	}
}

func TestCheckpointTrailingGarbageRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	_, err := DecodeCheckpoint(bytes.NewReader(append(append([]byte(nil), enc...), 0xAA)))
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointUnknownVersionRejected(t *testing.T) {
	enc := encodeCheckpoint(t, checkpointSnapshot(t))
	mut := append([]byte(nil), enc...)
	mut[8] = 0x7F // version low byte
	_, err := DecodeCheckpoint(bytes.NewReader(mut))
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version: got %v, want ErrCheckpointVersion", err)
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
		var buf bytes.Buffer
		if err := mutate(good).EncodeCheckpoint(&buf); err == nil {
			t.Errorf("%s: encode succeeded", name)
		}
	}
}

// FuzzCheckpointDecode drives the decoder with arbitrary bytes: it must
// never panic, anything it accepts must re-encode to exactly the input
// (canonical form), and every rejection must be a typed error.
func FuzzCheckpointDecode(f *testing.F) {
	st := StateConfig{LoadBins: 2, QoSBins: 1, TrendBins: 1}
	tiny := Snapshot{State: st, Tables: [][][]float64{{{0.5, -1}, {1, 2}, {3, 4}, {0, 0}}}}
	var buf bytes.Buffer
	if err := tiny.EncodeCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("RLPMCKPT"))
	f.Add(bytes.Repeat([]byte{0}, checkpointHeaderLen+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := snap.EncodeCheckpoint(&re); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatal("accepted checkpoint is not in canonical form")
		}
	})
}
