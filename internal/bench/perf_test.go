package bench

// Hot-path benchmarks: `make bench` measures them with allocation counts,
// and `make bench-smoke` runs each once. BENCH_pr3.json is the recorded
// run that README's Performance tables cite.

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"rlpm/internal/core"
	"rlpm/internal/rng"
	"rlpm/internal/serve"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
)

// BenchmarkClusterStep measures one cluster's physics step (power, thermal,
// QoS bookkeeping) in isolation.
func BenchmarkClusterStep(b *testing.B) {
	chip, err := newChip()
	if err != nil {
		b.Fatal(err)
	}
	cl := chip.Cluster(1)
	d := soc.Demand{Cycles: 50e6, Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Step(d, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipStepInto measures a whole-chip step through the
// allocation-free StepInto path, reusing one ChipStep across iterations
// the way the simulation loop does.
func BenchmarkChipStepInto(b *testing.B) {
	chip, err := newChip()
	if err != nil {
		b.Fatal(err)
	}
	demands := []soc.Demand{{Cycles: 20e6, Parallelism: 2}, {Cycles: 50e6, Parallelism: 4}}
	var res soc.ChipStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chip.StepInto(&res, demands, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentStep measures one tabular Q-learning decision+update step.
func BenchmarkAgentStep(b *testing.B) {
	a, err := core.NewAgent(core.DefaultConfig(), 9, 0)
	if err != nil {
		b.Fatal(err)
	}
	freqs := []float64{4e8, 6e8, 8e8, 1e9, 1.2e9, 1.4e9, 1.6e9, 1.8e9, 2e9}
	o := sim.Observation{
		Utilization: 0.7, DemandRatio: 0.9, QoS: 0.97, ClusterQoS: 0.97,
		Level: 4, NumLevels: 9, FreqsHz: freqs, EnergyJ: 0.1,
		ClusterEnergyJ: 0.05, TempC: 45, PeriodS: 0.05,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Level = a.Step(o)
	}
}

// BenchmarkSimRun measures a full closed-loop simulation (workload →
// governor → chip) under each of the built-in cpufreq baselines and the
// software RL policy. It reports the derived ns/step metric alongside the
// stock ns/op (one op = one 60 s run, 1200 control periods).
func BenchmarkSimRun(b *testing.B) {
	for _, name := range []string{"ondemand", "conservative", "interactive", "schedutil", "performance", "rl-policy"} {
		b.Run(name, func(b *testing.B) {
			chip, err := newChip()
			if err != nil {
				b.Fatal(err)
			}
			scen, err := newScenario("gaming", 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{PeriodS: 0.05, DurationS: 60, Seed: 1}
			gov, err := NewGovernor(name, chip, scen, cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			steps := int(cfg.DurationS / cfg.PeriodS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(chip, scen, gov, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
	}
}

// lookupRef is one (cluster, state) greedy query of the lookup benchmarks.
type lookupRef struct{ c, s int }

// lookupBenchFixture builds serving-shaped Q-tables (two clusters with
// different state/action counts, deterministic pseudo-random values) in
// both layouts, plus a reproducible batch of lookups over them. The batch
// has fleet-shaped state duplication: most devices sit in one of a few hot
// operating points at any instant, with a uniform tail — the distribution
// a fleet's lookups take at one instant.
func lookupBenchFixture(batch int) ([][][]float64, *core.FlatTables, []lookupRef) {
	r := rng.New(42)
	shape := []struct{ states, actions int }{{864, 9}, {100, 5}}
	tables := make([][][]float64, 0, len(shape))
	for _, sh := range shape {
		t := make([][]float64, sh.states)
		for s := range t {
			row := make([]float64, sh.actions)
			for a := range row {
				row[a] = r.Float64()*2 - 1
			}
			t[s] = row
		}
		tables = append(tables, t)
	}
	const hotStates = 4 // hot operating points per cluster
	lk := make([]lookupRef, batch)
	for i := range lk {
		c := i % len(tables) // a device frame contributes one lookup per cluster
		s := r.Intn(len(tables[c]))
		if r.Float64() < 0.9 {
			s = s % hotStates * (len(tables[c]) / hotStates) // spread hot rows across the table
		}
		lk[i] = lookupRef{c, s}
	}
	return tables, core.NewFlatTables(tables), lk
}

// lookupSink keeps the lookup benchmarks' results observable so the
// compiler cannot discard the measured work.
var lookupSink int

// BenchmarkPointerLookup resolves `batch` greedy lookups per op through the
// pointer-chasing [][][]float64 layout — the serving read path before the
// flat arena: two dependent loads per lookup (row pointer, then row data)
// against rows scattered across the heap.
func BenchmarkPointerLookup(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			tables, _, lk := lookupBenchFixture(batch)
			out := make([]int, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, l := range lk {
					row := tables[l.c][l.s]
					idx, best := 0, row[0]
					for a := 1; a < len(row); a++ {
						if row[a] > best {
							idx, best = a, row[a]
						}
					}
					out[j] = idx
				}
			}
			lookupSink = out[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/lookup")
		})
	}
}

// BenchmarkFlatLookup resolves the same batch through
// core.FlatTables.LookupManyInto: pack offset keys, resolve against the
// contiguous arena with the epoch-tagged per-row memo, so each distinct
// row is scanned once per batch. Key packing is charged to the measured op
// — it is part of the serving cost.
func BenchmarkFlatLookup(b *testing.B) {
	for _, batch := range []int{32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			_, ft, lk := lookupBenchFixture(batch)
			if ft == nil {
				b.Fatal("flat tables rejected the benchmark shape")
			}
			memo := ft.NewMemo()
			keys := make([]uint64, batch)
			out := make([]int, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, l := range lk {
					keys[j] = ft.Key(l.c, l.s, j)
				}
				ft.LookupManyInto(keys, out, memo)
			}
			lookupSink = out[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/lookup")
		})
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

// servedCheckpoint saves the model a default quick pmserve serves (gaming,
// seed 1) in a temp directory and returns the model and the checkpoint's
// path.
func servedCheckpoint(b *testing.B) (*serve.Model, string) {
	opt := DefaultOptions()
	opt.Quick = true
	model, _, err := TrainedServeModel(ServeOptions{Options: opt})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "served.ckpt")
	if _, err := serve.SaveModel(path, model); err != nil {
		b.Fatal(err)
	}
	return model, path
}

// BenchmarkLoadModel measures pmserve -checkpoint's load: one served
// checkpoint decoded from its file into a serving model. Its B/op is the
// arena the model keeps plus the decoder's buffer and the file handle.
func BenchmarkLoadModel(b *testing.B) {
	_, path := servedCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.LoadModel(path, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSave measures one durable save of the served model:
// its arena streamed to a temp file, fsynced and renamed into place. Its
// time is mostly the fsyncs; its B/op is the encoder's buffer and the
// temp file's bookkeeping.
func BenchmarkCheckpointSave(b *testing.B) {
	model, path := servedCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.SaveModel(path, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineQuickAll measures regenerating the entire evaluation
// (every experiment, quick mode) through the parallel experiment engine —
// the end-to-end cost a contributor pays per `make test` determinism
// check.
func BenchmarkEngineQuickAll(b *testing.B) {
	opt := DefaultOptions()
	opt.Quick = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range Experiments() {
			r, err := e.Run(opt)
			if err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
			r.WriteText(io.Discard)
		}
	}
}
