package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
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

// checkpointChunk is the size of the one buffer a checkpoint streams
// through, in either direction, whatever the size of its tables.
const checkpointChunk = 2048

// WriteCheckpoint writes st and the tables in f in the checkpoint format,
// through one fixed buffer with a running CRC, and flushes before it
// returns. The encoding is canonical: equal tables produce identical bytes
// (float64 values are stored as their exact bit patterns, so even NaN
// payloads round-trip). Every table must hold st.States(width) rows.
func WriteCheckpoint(w io.Writer, st StateConfig, f *FlatTables) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if f == nil || len(f.off) == 0 {
		return fmt.Errorf("core: checkpoint needs at least one table")
	}
	for c, width := range f.width {
		if states := f.States(c); states != st.States(width) {
			return fmt.Errorf("core: checkpoint table %d has %d states, config %+v with %d actions needs %d",
				c, states, st, width, st.States(width))
		}
	}
	e := ckptWriter{w: w, buf: make([]byte, 0, checkpointChunk)}
	e.buf = append(e.buf, checkpointMagic[:]...)
	for _, v := range []int{CheckpointVersion, st.LoadBins, st.QoSBins, st.TrendBins, len(f.off)} {
		e.u32(uint32(v))
	}
	for c, width := range f.width {
		e.u32(uint32(f.States(c)))
		e.u32(uint32(width))
		for _, v := range f.window(c) {
			e.reserve(8)
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
		}
	}
	// The CRC covers every byte before it, flushed or still pending, and
	// joins the pending bytes for one last write.
	e.reserve(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Update(e.crc, crc32.IEEETable, e.buf))
	e.flush()
	return e.err
}

// ckptWriter buffers a checkpoint's bytes and keeps the CRC32 (IEEE) of
// every byte it has flushed.
type ckptWriter struct {
	w   io.Writer
	buf []byte // pending bytes; cap checkpointChunk
	crc uint32
	err error // the first write error; later flushes write nothing
}

func (e *ckptWriter) u32(v uint32) {
	e.reserve(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// reserve flushes the buffer unless n more bytes fit in it.
func (e *ckptWriter) reserve(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *ckptWriter) flush() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// ReadCheckpoint decodes a checkpoint of size bytes from r (a file's Stat
// size) into its state configuration and one arena holding its tables. It
// reads through one fixed buffer with a running CRC and sizes the arena
// once from size, so what it allocates is bounded by size. It reads no
// further than the checkpoint, apart from the one read that confirms the
// input ends there. Any corruption fails with an error wrapping
// ErrCheckpointCorrupt: wrong magic, an input shorter or longer than size,
// flipped bits (checksum), trailing bytes, a table shape that contradicts
// the recorded state configuration, or a width the arena cannot pack
// (above MaxFlatActions). A clean file of an unknown version fails with
// ErrCheckpointVersion. It never panics on arbitrary input.
func ReadCheckpoint(r io.Reader, size int64) (StateConfig, *FlatTables, error) {
	if size < checkpointHeaderLen+4 {
		return StateConfig{}, nil, fmt.Errorf("%w: %d bytes is shorter than the minimal checkpoint", ErrCheckpointCorrupt, size)
	}
	d := ckptReader{r: r, buf: make([]byte, checkpointChunk)}
	h, err := d.next(checkpointHeaderLen)
	if err != nil {
		return StateConfig{}, nil, err
	}
	if !bytes.Equal(h[:8], checkpointMagic[:]) {
		return StateConfig{}, nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, h[:8])
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != CheckpointVersion {
		return StateConfig{}, nil, fmt.Errorf("%w: file is version %d, this build reads %d", ErrCheckpointVersion, v, CheckpointVersion)
	}
	st := StateConfig{
		LoadBins:  int(int32(binary.LittleEndian.Uint32(h[12:]))),
		QoSBins:   int(int32(binary.LittleEndian.Uint32(h[16:]))),
		TrendBins: int(int32(binary.LittleEndian.Uint32(h[20:]))),
	}
	if err := st.Validate(); err != nil {
		return StateConfig{}, nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	// Every table is an 8-byte shape and at least one 8-byte value, so the
	// size bounds the table count; what the shapes leave of the body is
	// the arena.
	count := int64(binary.LittleEndian.Uint32(h[24:]))
	body := size - checkpointHeaderLen - 4
	if count == 0 || count > body/16 {
		return StateConfig{}, nil, fmt.Errorf("%w: %d tables cannot fill a %d-byte body", ErrCheckpointCorrupt, count, body)
	}
	values := body - 8*count
	if values%8 != 0 || values/8 >= maxFlatArena {
		return StateConfig{}, nil, fmt.Errorf("%w: %d bytes of values is not an arena", ErrCheckpointCorrupt, values)
	}
	f := &FlatTables{arena: make([]float64, values/8), off: make([]int, count), width: make([]int, count)}
	n := 0
	for c := range f.off {
		h, err := d.next(8)
		if err != nil {
			return StateConfig{}, nil, err
		}
		states, actions := binary.LittleEndian.Uint32(h), binary.LittleEndian.Uint32(h[4:])
		if states == 0 || actions == 0 || actions > MaxFlatActions {
			return StateConfig{}, nil, fmt.Errorf("%w: table %d has shape %d×%d (at most %d actions)",
				ErrCheckpointCorrupt, c, states, actions, MaxFlatActions)
		}
		// The state count is redundant with the configuration; enforcing
		// the relation rejects structurally inconsistent payloads early.
		if int(states) != st.States(int(actions)) {
			return StateConfig{}, nil, fmt.Errorf("%w: table %d claims %d states for %d actions, config %+v needs %d",
				ErrCheckpointCorrupt, c, states, actions, st, st.States(int(actions)))
		}
		words := int(states) * int(actions)
		if words > len(f.arena)-n {
			return StateConfig{}, nil, fmt.Errorf("%w: table %d needs %d values, %d remain", ErrCheckpointCorrupt, c, words, len(f.arena)-n)
		}
		f.off[c], f.width[c] = n, int(actions)
		if err := d.floats(f.arena[n : n+words]); err != nil {
			return StateConfig{}, nil, err
		}
		n += words
	}
	if n != len(f.arena) {
		return StateConfig{}, nil, fmt.Errorf("%w: %d trailing bytes after last table", ErrCheckpointCorrupt, 8*(len(f.arena)-n))
	}
	want := d.crc
	tail, err := d.next(4)
	if err != nil {
		return StateConfig{}, nil, err
	}
	if got := binary.LittleEndian.Uint32(tail); got != want {
		return StateConfig{}, nil, fmt.Errorf("%w: checksum %#x != computed %#x", ErrCheckpointCorrupt, got, want)
	}
	if k, err := io.ReadFull(d.r, d.buf[:1]); k != 0 {
		return StateConfig{}, nil, fmt.Errorf("%w: the input runs past its %d bytes", ErrCheckpointCorrupt, size)
	} else if err != io.EOF {
		return StateConfig{}, nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return st, f, nil
}

// ReadCheckpointFile decodes the checkpoint file at path with
// ReadCheckpoint, sized by the file's Stat.
func ReadCheckpointFile(path string) (StateConfig, *FlatTables, error) {
	file, err := os.Open(path)
	if err != nil {
		return StateConfig{}, nil, err
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil {
		return StateConfig{}, nil, err
	}
	st, f, err := ReadCheckpoint(file, info.Size())
	if err != nil {
		return StateConfig{}, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return st, f, nil
}

// ckptReader hands out a checkpoint's bytes in order through one fixed
// buffer and keeps the CRC32 (IEEE) of every byte it has handed out. It
// reads only what it hands out.
type ckptReader struct {
	r   io.Reader
	buf []byte
	crc uint32
}

// next returns the next n bytes, n <= len(buf). The slice is valid until
// the next call.
func (d *ckptReader) next(n int) ([]byte, error) {
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("%w: the input ends before its declared size", ErrCheckpointCorrupt)
	} else if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
	return b, nil
}

// floats fills dst with the next len(dst) float64 bit patterns.
func (d *ckptReader) floats(dst []float64) error {
	for len(dst) > 0 {
		k := min(len(dst), len(d.buf)/8)
		b, err := d.next(8 * k)
		if err != nil {
			return err
		}
		for i := range dst[:k] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[k:]
	}
	return nil
}
