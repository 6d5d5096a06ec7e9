// Flat Q-table layout for the serving read path. A served model only
// ever does argmax reads. FlatTables packs every cluster's table into one
// contiguous row-major arena with precomputed row offsets — each cluster
// window laid out as its Agent keeps its own table — so a lookup is one
// offset computation plus a linear scan of an already-cache-resident row. A *batch* of lookups additionally resolves
// each distinct row at most once per call: a fleet batch is dominated by
// devices observing the same few hot states, and FlatMemo's epoch-tagged
// per-row cache collapses those repeats into one scan plus O(1) replays —
// with no sort and no per-call reset of the cache.
//
// The arena is the one in-memory form of a served table set. The
// checkpoint codec streams between a file and an arena (ReadCheckpoint,
// WriteCheckpoint), a policy hydrates from one (PolicyFromTables), and an
// online learner publishes one: it rewrites a retired arena in place
// (Policy.TablesInto) instead of building a new table set, the software
// counterpart of the paper's accelerator updating its one BRAM-resident
// Q-table through the MAC datapath.

package core

// MaxFlatBatch bounds the lookups one LookupManyInto call can carry: the
// packed lookup key reserves 16 bits for the caller's batch index.
const MaxFlatBatch = 1 << 16

// flatKeyIdxBits is the batch-index field width in a packed lookup key.
const (
	flatKeyIdxBits   = 16
	flatKeyWidthBits = 8
	flatKeyIdxMask   = MaxFlatBatch - 1
	flatKeyWidthMask = (1 << flatKeyWidthBits) - 1
)

// MaxFlatActions is the widest row (action count) the packed lookup key
// can carry; NewFlatTables and ReadCheckpoint reject wider tables.
const MaxFlatActions = flatKeyWidthMask

// maxFlatArena bounds an arena's length: the packed lookup key keeps 40
// bits for a row's arena offset.
const maxFlatArena = 1 << (64 - flatKeyIdxBits - flatKeyWidthBits)

// FlatTables is a Q-table set flattened into one contiguous row-major
// float64 arena shared by all clusters. Readers never write it, and an
// arena that has been published to readers is never written: the only
// writer is Policy.TablesInto, which an online learner points at an arena
// it owns — a fresh one, or one it retired whose readers have all
// finished. Batch lookups carry their mutable state in a caller-owned
// FlatMemo. The shape (off, width) is immutable and shared by NewLike
// copies.
type FlatTables struct {
	arena []float64
	off   []int // per-cluster arena offset of row 0
	width []int // per-cluster row width (action count), 1..MaxFlatActions
}

// flatMemoActBits is the action field width in a memo tag; the rest of the
// uint32 is the call epoch, so the epoch wraps (and the memo pays one real
// clear) every 2^24 calls.
const flatMemoActBits = 8

// FlatMemo is the caller-owned scratch for LookupManyInto: an epoch-tagged
// per-row argmax cache indexed by arena offset. Each entry packs the call
// epoch that wrote it with the memoized action in one uint32 — a row's
// entry is valid only when its epoch matches the current call's, so
// "resetting" the cache between calls is one counter increment, not a
// clear, and a memo hit is a single load. One goroutine at a time may use
// a given memo.
type FlatMemo struct {
	tag []uint32 // epoch<<flatMemoActBits | action, indexed by row arena offset
	cur uint32
}

// NewMemo allocates a lookup memo sized for this arena (4 bytes per arena
// slot; only row-start slots are ever touched).
func (f *FlatTables) NewMemo() *FlatMemo {
	return &FlatMemo{tag: make([]uint32, len(f.arena))}
}

// NewFlatTables flattens tables ([cluster][state][action]) into an arena,
// sized once from the validated shape. It returns nil when the shape
// cannot be packed into the lookup key encoding (an action count outside
// 1..MaxFlatActions, ragged rows, or an arena too large for the 40-bit
// row-offset field). Rows are copied; the source tables are not retained.
func NewFlatTables(tables [][][]float64) *FlatTables {
	f := &FlatTables{off: make([]int, len(tables)), width: make([]int, len(tables))}
	n := 0
	for c, t := range tables {
		if len(t) == 0 {
			return nil
		}
		w := len(t[0])
		if w < 1 || w > MaxFlatActions {
			return nil
		}
		for _, row := range t {
			if len(row) != w {
				return nil
			}
		}
		f.off[c], f.width[c] = n, w
		n += len(t) * w
	}
	if n >= maxFlatArena {
		return nil
	}
	f.arena = make([]float64, n)
	for c, t := range tables {
		for s, row := range t {
			copy(f.arena[f.off[c]+s*f.width[c]:], row)
		}
	}
	return f
}

// NewLike returns a zeroed arena of f's shape, ready for
// Policy.TablesInto. The shape metadata is shared, not copied.
func (f *FlatTables) NewLike() *FlatTables {
	return &FlatTables{arena: make([]float64, len(f.arena)), off: f.off, width: f.width}
}

// Tables copies the arena back into the [cluster][state][action] pointer
// layout, for code that edits tables by row. Each cluster's rows share one
// fresh backing slice, capacity-capped per row.
func (f *FlatTables) Tables() [][][]float64 {
	tables := make([][][]float64, len(f.off))
	for c, w := range f.width {
		flat := append([]float64(nil), f.window(c)...)
		t := make([][]float64, len(flat)/w)
		for s := range t {
			t[s] = flat[s*w : (s+1)*w : (s+1)*w]
		}
		tables[c] = t
	}
	return tables
}

// window returns cluster c's table, row-major.
func (f *FlatTables) window(c int) []float64 {
	end := len(f.arena)
	if c+1 < len(f.off) {
		end = f.off[c+1]
	}
	return f.arena[f.off[c]:end]
}

// Clusters returns the number of tables packed into the arena.
func (f *FlatTables) Clusters() int { return len(f.off) }

// Actions returns cluster c's row width: its action (OPP) count.
func (f *FlatTables) Actions(c int) int { return f.width[c] }

// States returns cluster c's row count.
func (f *FlatTables) States(c int) int { return len(f.window(c)) / f.width[c] }

// Argmax returns the greedy action for (cluster, state); ties break low,
// matching argmaxF and the hardware comparator tree.
func (f *FlatTables) Argmax(cluster, state int) int {
	w := f.width[cluster]
	start := f.off[cluster] + state*w
	row := f.arena[start : start+w]
	idx, best := 0, row[0]
	for i := 1; i < len(row); i++ {
		if row[i] > best {
			idx, best = i, row[i]
		}
	}
	return idx
}

// Key packs one lookup of a LookupManyInto batch: the row's arena offset
// and width in the high bits (everything the inner loop needs to slice the
// row without touching the per-cluster metadata again), and the caller's
// batch index idx (0 ≤ idx < MaxFlatBatch) in the low bits so the result
// lands back in the caller's slot.
func (f *FlatTables) Key(cluster, state, idx int) uint64 {
	start := uint64(f.off[cluster] + state*f.width[cluster])
	return start<<(flatKeyIdxBits+flatKeyWidthBits) |
		uint64(f.width[cluster])<<flatKeyIdxBits |
		uint64(idx)
}

// LookupManyInto resolves a batch of packed lookup keys, writing the greedy
// action for each key into out[key's idx]. Each distinct row is scanned at
// most once per call: the first lookup of a row argmaxes it and records the
// action in the memo under the call's epoch; every repeat (distinct fleet
// devices observing the same state) is a single tagged read. keys is not
// modified.
func (f *FlatTables) LookupManyInto(keys []uint64, out []int, m *FlatMemo) {
	m.cur++
	if m.cur >= 1<<(32-flatMemoActBits) { // epoch wrapped: stale tags from
		clear(m.tag) // 16M calls ago would read as fresh, so pay one reset
		m.cur = 1
	}
	curTag := m.cur << flatMemoActBits
	tag, arena := m.tag, f.arena
	for _, k := range keys {
		start := k >> (flatKeyIdxBits + flatKeyWidthBits)
		t := tag[start]
		a := int(t) & (1<<flatMemoActBits - 1)
		if t&^uint32(1<<flatMemoActBits-1) != curTag {
			w := k >> flatKeyIdxBits & flatKeyWidthMask
			row := arena[start : start+w]
			a = 0
			best := row[0]
			for i := 1; i < len(row); i++ {
				if row[i] > best {
					a, best = i, row[i]
				}
			}
			tag[start] = curTag | uint32(a)
		}
		out[k&flatKeyIdxMask] = a
	}
}
