package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte for a small
// registry: HELP/TYPE emitted once per name, series sorted by (name,
// labels), label keys sorted inside each series, values escaped.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	// Registered deliberately out of name order and with unsorted label
	// keys: the exposition must come out sorted anyway.
	zz := reg.NewCounter("zz_total", "last by name")
	up := reg.NewGauge("aa_up", "first by name")
	b := reg.NewCounter("mid_total", "two series, one name",
		Label{Key: "stage", Value: "backend"})
	a := reg.NewCounter("mid_total", "two series, one name",
		Label{Key: "stage", Value: "assemble"})
	reg.NewGaugeFunc("fn_gauge", "scrape-time value", func() float64 { return 1.5 })
	esc := reg.NewCounter("esc_total", "escaped label",
		Label{Key: "zkey", Value: `quote " slash \ nl` + "\n"}, Label{Key: "akey", Value: "v"})

	zz.Add(7)
	up.Set(0.25)
	a.Add(1)
	b.Add(2)
	esc.Add(1)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP aa_up first by name
# TYPE aa_up gauge
aa_up 0.25
# HELP esc_total escaped label
# TYPE esc_total counter
esc_total{akey="v",zkey="quote \" slash \\ nl\n"} 1
# HELP fn_gauge scrape-time value
# TYPE fn_gauge gauge
fn_gauge 1.5
# HELP mid_total two series, one name
# TYPE mid_total counter
mid_total{stage="assemble"} 1
mid_total{stage="backend"} 2
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 7
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted from the golden fixture:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusHistogram checks the histogram rendering contract:
// cumulative buckets over every bound, a +Inf bucket equal to _count, and
// _sum in ns.
func TestWritePrometheusHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lat_ns", "latency", Label{Key: "stage", Value: "http"})
	h.Observe(100) // bucket [96,112)
	h.Observe(100)
	h.Observe(40) // bucket 0

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()
	for _, line := range []string{
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{stage="http",le="64"} 1`,
		`lat_ns_bucket{stage="http",le="96"} 1`,
		`lat_ns_bucket{stage="http",le="112"} 3`,
		`lat_ns_bucket{stage="http",le="+Inf"} 3`,
		`lat_ns_sum{stage="http"} 240`,
		`lat_ns_count{stage="http"} 3`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, got)
		}
	}
	// Exactly one bucket line per bound plus sum and count.
	lines := strings.Count(got, "\n")
	if want := 2 + NumBuckets + 2; lines != want {
		t.Fatalf("%d exposition lines, want %d", lines, want)
	}
	// Cumulative counts never decrease.
	prev := -1
	for _, l := range strings.Split(got, "\n") {
		if !strings.HasPrefix(l, "lat_ns_bucket") {
			continue
		}
		v, err := strconv.Atoi(l[strings.LastIndexByte(l, ' ')+1:])
		if err != nil {
			t.Fatalf("parsing %q: %v", l, err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket count decreased at %q", l)
		}
		prev = v
	}
}

// TestRegistryPanics pins the wiring-time programming-error checks.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.NewCounter("ok_total", "")
	mustPanic("invalid name", func() { reg.NewCounter("bad name", "") })
	mustPanic("empty name", func() { reg.NewCounter("", "") })
	mustPanic("duplicate series", func() { reg.NewCounter("ok_total", "") })
	mustPanic("type conflict", func() { reg.NewGauge("ok_total", "") })
	mustPanic("invalid label key", func() {
		reg.NewCounter("lbl_total", "", Label{Key: "0bad", Value: "v"})
	})
	// Same name with different labels is fine.
	reg.NewCounter("ok_total", "", Label{Key: "k", Value: "v"})
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "")
	c.Add(1)
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter %d, want 5", c.Load())
	}
	g := reg.NewGauge("g", "")
	g.Set(-2.5)
	if g.Load() != -2.5 {
		t.Fatalf("gauge %v, want -2.5", g.Load())
	}
}
