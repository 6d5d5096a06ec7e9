// Package trace records named time series during simulation and exports
// them as CSV, the format the figure-regeneration tooling (cmd/pmtrace)
// emits for Fig. 4-style frequency/power/QoS traces.
//
// A Recorder holds one row per sample time and any number of float64
// columns. Columns are registered up front so every row is complete; this
// mirrors how the paper's measurement scripts log one line per DVFS control
// period.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Recorder accumulates a rectangular table of samples.
type Recorder struct {
	cols    []string
	colIdx  map[string]int
	times   []float64
	samples [][]float64 // samples[row][col]
}

// NewRecorder creates a Recorder with the given column names (order is
// preserved in the CSV output). Column names must be unique and non-empty.
func NewRecorder(cols ...string) (*Recorder, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("trace: recorder needs at least one column")
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c == "" {
			return nil, fmt.Errorf("trace: empty column name at position %d", i)
		}
		if _, dup := idx[c]; dup {
			return nil, fmt.Errorf("trace: duplicate column %q", c)
		}
		idx[c] = i
	}
	return &Recorder{cols: cols, colIdx: idx}, nil
}

// Record appends one row at time t. vals must supply every registered
// column; missing columns default to NaN-free zero only if allowZero was
// requested — here we are strict and error instead, because a silently
// zero-filled power column would corrupt an energy figure.
func (r *Recorder) Record(t float64, vals map[string]float64) error {
	row := make([]float64, len(r.cols))
	for name, v := range vals {
		i, ok := r.colIdx[name]
		if !ok {
			return fmt.Errorf("trace: unknown column %q", name)
		}
		row[i] = v
	}
	if len(vals) != len(r.cols) {
		for _, c := range r.cols {
			if _, ok := vals[c]; !ok {
				return fmt.Errorf("trace: missing column %q at t=%v", c, t)
			}
		}
	}
	if err := r.checkTime(t); err != nil {
		return err
	}
	r.times = append(r.times, t)
	r.samples = append(r.samples, row)
	return nil
}

// checkTime rejects out-of-order sample times. Integrate's step sums
// assume non-decreasing times; accepting a rewinding clock would silently
// corrupt them, so it is an error at the source.
func (r *Recorder) checkTime(t float64) error {
	if n := len(r.times); n > 0 && t < r.times[n-1] {
		return fmt.Errorf("trace: out-of-order sample time %v after %v", t, r.times[n-1])
	}
	return nil
}

// RecordRow appends one row at time t with vals given in registered column
// order (the order passed to NewRecorder). It is the allocation-lean
// counterpart of Record for hot loops: the caller keeps one reusable slice
// and the Recorder copies it, so no map or per-column lookup is involved.
func (r *Recorder) RecordRow(t float64, vals []float64) error {
	if len(vals) != len(r.cols) {
		return fmt.Errorf("trace: row has %d values for %d columns at t=%v", len(vals), len(r.cols), t)
	}
	if err := r.checkTime(t); err != nil {
		return err
	}
	row := make([]float64, len(vals))
	copy(row, vals)
	r.times = append(r.times, t)
	r.samples = append(r.samples, row)
	return nil
}

// ColumnIndex returns the position of col in the registered column order.
func (r *Recorder) ColumnIndex(col string) (int, bool) {
	i, ok := r.colIdx[col]
	return i, ok
}

// Len returns the number of recorded rows.
func (r *Recorder) Len() int { return len(r.times) }

// Columns returns the registered column names in output order.
func (r *Recorder) Columns() []string {
	return append([]string(nil), r.cols...)
}

// Series returns a copy of one column's values.
func (r *Recorder) Series(col string) ([]float64, error) {
	i, ok := r.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("trace: unknown column %q", col)
	}
	out := make([]float64, len(r.samples))
	for row := range r.samples {
		out[row] = r.samples[row][i]
	}
	return out, nil
}

// WriteCSV writes "time,<col>,..." rows. Floats are formatted with %g so
// the files stay compact and diff-able.
func (r *Recorder) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time")
	for _, c := range r.cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for row := range r.samples {
		b.Reset()
		b.WriteString(strconv.FormatFloat(r.times[row], 'g', -1, 64))
		for _, v := range r.samples[row] {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Downsample returns a new Recorder keeping every k-th row (k >= 1),
// starting with the first. Used to thin dense traces for plotting.
func (r *Recorder) Downsample(k int) (*Recorder, error) {
	if k < 1 {
		return nil, fmt.Errorf("trace: downsample factor %d < 1", k)
	}
	out := &Recorder{cols: r.Columns(), colIdx: make(map[string]int, len(r.cols))}
	for i, c := range out.cols {
		out.colIdx[c] = i
	}
	for i := 0; i < len(r.times); i += k {
		out.times = append(out.times, r.times[i])
		out.samples = append(out.samples, append([]float64(nil), r.samples[i]...))
	}
	return out, nil
}

// Integrate returns the time integral of col using the left Riemann sum
// over the recorded (assumed increasing) times, with the final sample
// extended by the mean step. This matches how the simulator's fixed-period
// sampling turns power into energy.
func (r *Recorder) Integrate(col string) (float64, error) {
	ys, err := r.Series(col)
	if err != nil {
		return 0, err
	}
	n := len(ys)
	if n == 0 {
		return 0, nil
	}
	if n == 1 {
		return 0, fmt.Errorf("trace: cannot integrate single sample without a step")
	}
	var total float64
	for i := 0; i < n-1; i++ {
		total += ys[i] * (r.times[i+1] - r.times[i])
	}
	meanStep := (r.times[n-1] - r.times[0]) / float64(n-1)
	total += ys[n-1] * meanStep
	return total, nil
}
