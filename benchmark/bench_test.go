package main

import (
	"context"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"rlpm/internal/obs"
	"rlpm/internal/serve"
)

// TestSmoke runs every workload at a tiny size against freshly built
// servers — end-to-end metrics for each, per-layer metrics for the one
// that exercises every layer — and requires a correct run that emits
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts pmserve and pmrouter")
	}
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/pmserve", "./cmd/pmrouter")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	work := t.TempDir()
	ckpt := filepath.Join(work, "policy.ckpt")
	model, err := trainCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	run := func(spec workloadSpec, trace bool, declared []benchMetric) {
		spec.Nominal, spec.Peak = 16, 24
		cfg := runConfig{spec: spec, seed: 7, plan: planFor(0.8), trace: trace,
			binDir: bin, workDir: work, checkpoint: ckpt}
		if trace {
			cfg.traceFile = filepath.Join(work, "trace.json")
		}
		res, err := runWorkload(context.Background(), cfg, model, io.Discard)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", spec.Name, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s (trace %v): correct %v, %d of %d frames failed; notes %q",
				spec.Name, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		emitted := map[string]string{}
		for _, m := range res.Metrics {
			emitted[m.Name] = m.Unit
		}
		for _, m := range declared {
			unit, ok := emitted[m.Name]
			switch {
			case !ok:
				t.Errorf("%s (trace %v): BENCHMARK.json metric %s not emitted", spec.Name, trace, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: metric %s emitted in %s, declared in %s", spec.Name, m.Name, unit, m.Unit)
			}
			delete(emitted, m.Name)
		}
		for name := range emitted {
			t.Errorf("%s (trace %v): emitted metric %s is not in BENCHMARK.json", spec.Name, trace, name)
		}
		diag := map[string]string{}
		for _, m := range res.Diag {
			diag[m.Name] = m.Unit
		}
		for _, m := range trackedDiagnostics {
			if diag[m.Name] != m.Unit {
				t.Errorf("%s (trace %v): tracked diagnostic %s [%s] missing or in %q", spec.Name, trace, m.Name, m.Unit, diag[m.Name])
			}
		}
	}
	for _, spec := range workloads {
		run(spec, false, bf.EndToEnd)
	}
	learn, err := workloadByName("learn-k1")
	if err != nil {
		t.Fatal(err)
	}
	run(learn, true, bf.PerLayer)
	t.Logf("smoke runs took %v", time.Since(start).Round(time.Millisecond))
}

// TestBenchmarkFile pins BENCHMARK.json to the code: the same workloads and
// metric units, and values inside the benchmark contract's limits.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].Name)
		}
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []benchMetric, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(code))
		}
		for i, m := range declared {
			if i < len(code) && (m.Name != code[i].Name || m.Unit != code[i].Unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, code[i].Name, code[i].Unit)
			}
			if !nameRe.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
	var setup float64
	for _, m := range bf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("metric %s: bound %v above setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
	for _, m := range bf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestPacerLateness paces an idle fleet whose decide answers instantly and
// requires frames to start within 250 µs of their due time at the median.
// A pacer built on time.Sleep fails this: in an idle process sleeps under
// 1 ms round up to the netpoller's 1 ms tick.
func TestPacerLateness(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation dominates pacing lateness")
	}
	const n = 200
	spec := workloadSpec{K: 1, Nominal: n, Peak: n}
	devs := make([]*device, n)
	for i := range devs {
		d, err := newDevice(spec, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		d.decide = func(_ context.Context, obs []serve.Observation) ([]int, error) {
			return make([]int, len(obs)), nil
		}
		devs[i] = d
	}
	fl := newFleet(devs)
	defer fl.close()
	fl.pace(context.Background(), window(0, kindNominal), n, 300*time.Millisecond, false)
	late := gather(devs, kindNominal, func(l *ledger) []int64 { return l.late })
	frames := sumKind(devs, kindNominal, func(l *ledger) float64 { return float64(l.frames) })
	if want := float64(n) * 0.3 / periodS; frames < want-n || frames > want+n {
		t.Errorf("%v frames paced, want about %v", frames, want)
	}
	if p50 := time.Duration(percentile(late, 0.5)); p50 > 250*time.Microsecond {
		t.Errorf("median pacing lateness %v, want under 250µs", p50)
	}
}

func TestSubHist(t *testing.T) {
	h := obs.NewHistogram("h", "")
	h.Observe(100)
	h.Observe(5000)
	before := h.Snapshot()
	for _, v := range []int64{200, 200, 1e6} {
		h.Observe(v)
	}
	after := h.Snapshot()
	d, err := subHist(&after, &before)
	if err != nil {
		t.Fatal(err)
	}
	var buckets uint64
	for _, c := range d.Counts {
		buckets += c
	}
	if d.Count != 3 || buckets != 3 || d.Sum != 200+200+1e6 {
		t.Errorf("delta: count %d, bucket total %d, sum %d; want 3, 3, %d", d.Count, buckets, d.Sum, 200+200+int64(1e6))
	}
	if q := d.Quantile(0.5); q < 200 || q > 256 {
		t.Errorf("delta median %v, want the 200 ns bucket", q)
	}
	if _, err := subHist(&before, &after); err == nil {
		t.Error("subtracting a later snapshot from an earlier one did not fail")
	}
}

// TestFleetDelta checks the fleet-wide change between scrapes: per-shard
// differences of counters and histograms, summed across shards, with
// gauges at their later value.
func TestFleetDelta(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	var (
		cs []*obs.Counter
		hs []*obs.Histogram
		gs []*obs.Gauge
	)
	for _, r := range regs {
		cs = append(cs, r.NewCounter("c_total", ""))
		hs = append(hs, r.NewHistogram("serve_decide_stage_ns", "", obs.Label{Key: "stage", Value: "bin"}))
		gs = append(gs, r.NewGauge("g", ""))
	}
	snap := func() []obs.RegistrySnapshot {
		return []obs.RegistrySnapshot{regs[0].Snapshot(), regs[1].Snapshot()}
	}
	cs[0].Add(5)
	hs[1].Observe(1000)
	before := snap()
	cs[0].Add(2)
	cs[1].Add(3)
	hs[0].Observe(400)
	hs[1].Observe(600)
	gs[0].Set(1)
	gs[1].Set(2)
	d, err := fleetDelta(snap(), before)
	if err != nil {
		t.Fatal(err)
	}
	if c := counter(d, "c_total"); c != 5 {
		t.Errorf("counter delta %v, want 5", c)
	}
	if h := stage(d, "bin"); h.Count != 2 || h.Mean() != 500 {
		t.Errorf("stage delta: %d samples, mean %v; want 2, 500", h.Count, h.Mean())
	}
	if g := counter(d, "g"); g != 3 {
		t.Errorf("gauge %v, want the later values summed, 3", g)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {99, 0}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestQuartiles pins Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	} {
		q1, m, q3 := quartiles(c.in)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := benchMetric{Name: "p50_ms", Better: "lower", Bound: &bound}
	layer := benchMetric{Name: "front.stage_us", Better: "lower"}
	series := func(base float64, n int, step float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base + step*float64(i%5)
		}
		return v
	}
	for _, c := range []struct {
		name string
		m    benchMetric
		a, b []float64
		want string
	}{
		{"clear gain over ten pairs", lower, series(100, 10, 1), series(80, 10, 1), "better"},
		{"gain without ten pairs", lower, series(100, 5, 1), series(80, 5, 1), "unchanged"},
		{"regression past the bound", lower, series(100, 10, 1), series(120, 10, 1), "worse"},
		{"within the bound", lower, series(100, 10, 1), series(103, 10, 1), "unchanged"},
		{"spread wider than the bound", lower, series(60, 10, 20), series(62, 10, 20), "unresolved"},
		{"per-layer gain", layer, series(100, 10, 1), series(80, 10, 1), "better"},
		{"per-layer loss", layer, series(100, 10, 1), series(120, 10, 1), "worse"},
		{"per-layer noise", layer, series(100, 10, 1), series(101, 10, 1), "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
