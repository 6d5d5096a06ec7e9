package core

import (
	"testing"

	"rlpm/internal/rng"
)

// flatTestTables builds deterministic pseudo-random tables shaped like a
// two-cluster serving model (different state and action counts per cluster).
func flatTestTables(seed uint64) [][][]float64 {
	r := rng.New(seed)
	shape := []struct{ states, actions int }{{864, 9}, {100, 5}}
	var tables [][][]float64
	for _, sh := range shape {
		t := make([][]float64, sh.states)
		for s := range t {
			row := make([]float64, sh.actions)
			for a := range row {
				row[a] = r.Float64()*2 - 1
			}
			// Sprinkle exact ties so the ties-break-low rule is exercised,
			// not just assumed.
			if s%7 == 0 && sh.actions > 2 {
				row[sh.actions-1] = row[1]
			}
			t[s] = row
		}
		tables = append(tables, t)
	}
	return tables
}

// TestFlatTablesArgmaxEquivalence pins the flat kernel to argmaxF over
// every (cluster, state) row — same winner, ties break low.
func TestFlatTablesArgmaxEquivalence(t *testing.T) {
	tables := flatTestTables(42)
	ft := NewFlatTables(tables)
	if ft == nil {
		t.Fatal("NewFlatTables rejected a representable shape")
	}
	if ft.Clusters() != len(tables) {
		t.Fatalf("Clusters() = %d, want %d", ft.Clusters(), len(tables))
	}
	for c, tab := range tables {
		if ft.width[c] != len(tab[0]) {
			t.Fatalf("width[%d] = %d, want %d", c, ft.width[c], len(tab[0]))
		}
		for s, row := range tab {
			want, _ := argmaxF(row)
			if got := ft.Argmax(c, s); got != want {
				t.Fatalf("cluster %d state %d: flat argmax %d, argmaxF %d", c, s, got, want)
			}
		}
	}
}

// TestFlatTablesLookupMany pins the batched kernel against per-lookup
// Argmax on a batch with heavy state repetition (the memoized-row path)
// and unsorted input order.
func TestFlatTablesLookupMany(t *testing.T) {
	tables := flatTestTables(7)
	ft := NewFlatTables(tables)
	if ft == nil {
		t.Fatal("NewFlatTables rejected a representable shape")
	}
	r := rng.New(99)
	const batch = 500
	type lk struct{ c, s int }
	lookups := make([]lk, batch)
	keys := make([]uint64, batch)
	out := make([]int, batch)
	for i := range lookups {
		c := r.Intn(len(tables))
		s := r.Intn(len(tables[c]) / 4) // small state range → many duplicates
		lookups[i] = lk{c, s}
		keys[i] = ft.Key(c, s, i)
	}
	memo := ft.NewMemo()
	// Resolve the same batch repeatedly through one memo: the second and
	// third calls must not reuse the previous call's entries as-is (the
	// epoch tag is what invalidates them) and must still agree with Argmax.
	for call := 0; call < 3; call++ {
		ft.LookupManyInto(keys, out, memo)
		for i, l := range lookups {
			if want := ft.Argmax(l.c, l.s); out[i] != want {
				t.Fatalf("call %d lookup %d (cluster %d state %d): batch %d, direct %d", call, i, l.c, l.s, out[i], want)
			}
		}
	}
}

// TestFlatMemoEpochWraps pins the epoch-rollover path: when the call
// counter reaches the tag's epoch-field capacity, entries written 16M
// calls ago must not read as fresh.
func TestFlatMemoEpochWraps(t *testing.T) {
	tables := flatTestTables(11)
	ft := NewFlatTables(tables)
	if ft == nil {
		t.Fatal("NewFlatTables rejected a representable shape")
	}
	memo := ft.NewMemo()
	keys := []uint64{ft.Key(0, 3, 0), ft.Key(1, 4, 1), ft.Key(0, 3, 2)}
	out := make([]int, len(keys))
	// Poison an entry with a wrong action under what will become the
	// post-wrap epoch: if the wrap fails to clear the memo, this stale
	// entry reads as fresh and surfaces the wrong action.
	wrong := uint32(ft.Argmax(0, 3)+1) % uint32(ft.width[0])
	memo.tag[keys[0]>>(flatKeyIdxBits+flatKeyWidthBits)] = 1<<flatMemoActBits | wrong
	memo.cur = 1<<(32-flatMemoActBits) - 1 // next call wraps
	ft.LookupManyInto(keys, out, memo)
	if memo.cur != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", memo.cur)
	}
	want := []int{ft.Argmax(0, 3), ft.Argmax(1, 4), ft.Argmax(0, 3)}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("post-wrap lookup %d: got %d, want %d", i, out[i], want[i])
		}
	}
}

// TestFlatTablesUnrepresentable pins the nil fallbacks: shapes the packed
// key cannot express must be rejected, not silently mis-encoded.
func TestFlatTablesUnrepresentable(t *testing.T) {
	wide := make([]float64, 256)
	cases := map[string][][][]float64{
		"empty table":    {{}},
		"empty row":      {{{}}},
		"width over 255": {{wide}},
		"ragged rows":    {{{1, 2}, {1, 2, 3}}},
	}
	for name, tables := range cases {
		if NewFlatTables(tables) != nil {
			t.Errorf("%s: NewFlatTables accepted an unrepresentable shape", name)
		}
	}
}

// TestFlatLookupManyAllocFree pins the batched kernel at zero allocations —
// the property the serving backend's hot path depends on.
func TestFlatLookupManyAllocFree(t *testing.T) {
	ft := NewFlatTables(flatTestTables(3))
	if ft == nil {
		t.Fatal("NewFlatTables rejected a representable shape")
	}
	const batch = 64
	proto := make([]uint64, batch)
	r := rng.New(5)
	for i := range proto {
		proto[i] = ft.Key(r.Intn(2), r.Intn(100), i)
	}
	keys := make([]uint64, batch)
	out := make([]int, batch)
	memo := ft.NewMemo()
	allocs := testing.AllocsPerRun(200, func() {
		copy(keys, proto)
		ft.LookupManyInto(keys, out, memo)
	})
	if allocs != 0 {
		t.Fatalf("LookupManyInto allocated %.1f times per batch, want 0", allocs)
	}
}
