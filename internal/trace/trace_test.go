package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// mustRecorder is NewRecorder for the tests' static column lists.
func mustRecorder(t *testing.T, cols ...string) *Recorder {
	t.Helper()
	r, err := NewRecorder(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := NewRecorder("a", "a"); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewRecorder("a", ""); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := NewRecorder("a", "b"); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndSeries(t *testing.T) {
	r := mustRecorder(t, "power", "freq")
	for i := 0; i < 3; i++ {
		err := r.Record(float64(i), map[string]float64{
			"power": float64(i) * 2,
			"freq":  100 + float64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	p, err := r.Series("power")
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0 || p[1] != 2 || p[2] != 4 {
		t.Fatalf("power series = %v", p)
	}
	if last := r.samples[2][1]; last != 102 {
		t.Fatalf("last freq = %v", last)
	}
}

func TestRecordRejectsUnknownAndMissing(t *testing.T) {
	r := mustRecorder(t, "a", "b")
	if err := r.Record(0, map[string]float64{"a": 1, "c": 2}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := r.Record(0, map[string]float64{"a": 1}); err == nil {
		t.Fatal("missing column accepted")
	}
	if r.Len() != 0 {
		t.Fatal("failed Record still appended a row")
	}
}

func TestSeriesUnknown(t *testing.T) {
	r := mustRecorder(t, "a")
	if _, err := r.Series("nope"); err == nil {
		t.Fatal("unknown series accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	r := mustRecorder(t, "x")
	_ = r.Record(0.5, map[string]float64{"x": 1.25})
	_ = r.Record(1.0, map[string]float64{"x": -3})
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "time,x\n0.5,1.25\n1,-3\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestColumnsCopy(t *testing.T) {
	r := mustRecorder(t, "a", "b")
	cols := r.Columns()
	cols[0] = "mutated"
	if r.Columns()[0] != "a" {
		t.Fatal("Columns returned aliased slice")
	}
}

func TestDownsample(t *testing.T) {
	r := mustRecorder(t, "v")
	for i := 0; i < 10; i++ {
		_ = r.Record(float64(i), map[string]float64{"v": float64(i)})
	}
	d, err := r.Downsample(3)
	if err != nil {
		t.Fatal(err)
	}
	times := d.times
	if len(times) != 4 || times[0] != 0 || times[3] != 9 {
		t.Fatalf("downsampled times = %v", times)
	}
	if _, err := r.Downsample(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestIntegrateConstant(t *testing.T) {
	r := mustRecorder(t, "p")
	for i := 0; i < 5; i++ {
		_ = r.Record(float64(i)*0.5, map[string]float64{"p": 2})
	}
	// Constant 2 W over 5 samples at 0.5 s step = 2 * 2.5 = 5 J.
	got, err := r.Integrate("p")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("Integrate = %v, want 5", got)
	}
}

func TestIntegrateEdges(t *testing.T) {
	r := mustRecorder(t, "p")
	if got, err := r.Integrate("p"); err != nil || got != 0 {
		t.Fatalf("empty Integrate = %v, %v", got, err)
	}
	_ = r.Record(0, map[string]float64{"p": 1})
	if _, err := r.Integrate("p"); err == nil {
		t.Fatal("single-sample Integrate accepted")
	}
	if _, err := r.Integrate("nope"); err == nil {
		t.Fatal("unknown column Integrate accepted")
	}
}

// Property: integral of constant c over n uniform steps dt equals c*n*dt.
func TestIntegrateConstantProperty(t *testing.T) {
	f := func(cRaw int16, nRaw, dtRaw uint8) bool {
		c := float64(cRaw) / 16
		n := int(nRaw%50) + 2
		dt := float64(dtRaw%20+1) / 10
		r := mustRecorder(t, "p")
		for i := 0; i < n; i++ {
			_ = r.Record(float64(i)*dt, map[string]float64{"p": c})
		}
		got, err := r.Integrate("p")
		if err != nil {
			return false
		}
		want := c * float64(n) * dt
		return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Downsample(1) is identity over times and values.
func TestDownsampleIdentityProperty(t *testing.T) {
	f := func(vals []int16) bool {
		r := mustRecorder(t, "v")
		for i, v := range vals {
			_ = r.Record(float64(i), map[string]float64{"v": float64(v)})
		}
		d, err := r.Downsample(1)
		if err != nil || d.Len() != r.Len() {
			return false
		}
		a, _ := r.Series("v")
		b, _ := d.Series("v")
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
