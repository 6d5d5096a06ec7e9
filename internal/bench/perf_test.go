package bench

import (
	"fmt"
	"testing"
)

// Hot-path benchmarks (bodies in perf.go).

func BenchmarkClusterStep(b *testing.B)  { BenchClusterStep(b) }
func BenchmarkChipStepInto(b *testing.B) { BenchChipStepInto(b) }
func BenchmarkAgentStep(b *testing.B)    { BenchAgentStep(b) }

func BenchmarkSimRun(b *testing.B) {
	for _, name := range PerfGovernors() {
		b.Run(name, BenchSimRun(name))
	}
}

func BenchmarkPointerLookup(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), BenchPointerLookup(batch))
	}
}

func BenchmarkFlatLookup(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), BenchFlatLookup(batch))
	}
}

// TestLookupBenchLayoutsAgree pins the two lookup benchmark bodies to the
// same answers — the microbenchmark compares layouts, not policies.
func TestLookupBenchLayoutsAgree(t *testing.T) {
	tables, ft, lk := lookupBenchFixture(512)
	if ft == nil {
		t.Fatal("flat tables rejected the benchmark shape")
	}
	keys := make([]uint64, len(lk))
	out := make([]int, len(lk))
	for j, l := range lk {
		keys[j] = ft.Key(l.c, l.s, j)
	}
	ft.LookupManyInto(keys, out, ft.NewMemo())
	for j, l := range lk {
		row := tables[l.c][l.s]
		idx, best := 0, row[0]
		for a := 1; a < len(row); a++ {
			if row[a] > best {
				idx, best = a, row[a]
			}
		}
		if out[j] != idx {
			t.Fatalf("lookup %d (cluster %d state %d): flat=%d pointer=%d", j, l.c, l.s, out[j], idx)
		}
	}
}

// TestFlatLookupBenchAllocFree pins the flat benchmark body's steady state
// at zero allocations per batch.
func TestFlatLookupBenchAllocFree(t *testing.T) {
	_, ft, lk := lookupBenchFixture(256)
	if ft == nil {
		t.Fatal("flat tables rejected the benchmark shape")
	}
	memo := ft.NewMemo()
	keys := make([]uint64, len(lk))
	out := make([]int, len(lk))
	if n := testing.AllocsPerRun(100, func() {
		for j, l := range lk {
			keys[j] = ft.Key(l.c, l.s, j)
		}
		ft.LookupManyInto(keys, out, memo)
	}); n != 0 {
		t.Fatalf("flat lookup batch allocates %v times per run, want 0", n)
	}
}

func BenchmarkEngineQuickAll(b *testing.B) { BenchEngineQuickAll(b) }
