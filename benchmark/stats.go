package main

import (
	"fmt"
	"math"
	"slices"

	"rlpm/internal/obs"
)

// percentile returns the nearest-rank q-quantile (q in (0,1]) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(r, 0), len(sorted)-1)]
}

// tailPercentile picks the highest of p99.9, p99 and p90 that has at
// least ten samples beyond it, as per-mille; 0 when even p90 has fewer.
// A percentile with fewer samples beyond it is one or two outliers, not a
// tail.
func tailPercentile(n int) int {
	for _, pm := range []int{999, 990, 900} {
		beyond := n - (n*pm+999)/1000
		if beyond >= 10 {
			return pm
		}
	}
	return 0
}

// quartiles returns Q1, median and Q3 with Python's
// statistics.quantiles(values, n=4) (the default, exclusive method), so
// spreads printed here match the ones computed from the JSON lines.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// subHist returns after − before: the samples observed between two
// snapshots of one histogram. Max is not recoverable from two snapshots
// and is left at after's lifetime value.
func subHist(after, before *obs.HistogramSnapshot) (obs.HistogramSnapshot, error) {
	d := *after
	if before == nil {
		return d, nil
	}
	if before.Count > after.Count {
		return d, fmt.Errorf("histogram went backwards: %d samples, then %d", before.Count, after.Count)
	}
	for i := range d.Counts {
		if before.Counts[i] > after.Counts[i] {
			return d, fmt.Errorf("histogram bucket %d went backwards", i)
		}
		d.Counts[i] -= before.Counts[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	return d, nil
}

// subRegistry returns the change of every counter and histogram between
// two snapshots of one process; gauges keep their later value.
func subRegistry(after, before *obs.RegistrySnapshot) (obs.RegistrySnapshot, error) {
	out := obs.RegistrySnapshot{Series: make([]obs.SeriesSnapshot, 0, len(after.Series))}
	for _, a := range after.Series {
		b := before.Find(a.Name, a.Labels)
		switch {
		case b == nil || a.Type == "gauge":
		case a.Type == "histogram" && a.Hist != nil:
			h, err := subHist(a.Hist, b.Hist)
			if err != nil {
				return out, fmt.Errorf("%s{%s}: %w", a.Name, a.Labels, err)
			}
			a.Hist = &h
		default:
			a.Value -= b.Value
		}
		out.Series = append(out.Series, a)
	}
	return out, nil
}

// fleetDelta is the fleet-wide change of the shards' registries between two
// scrapes: per-shard differences, merged.
func fleetDelta(after, before []obs.RegistrySnapshot) (*obs.RegistrySnapshot, error) {
	var total obs.RegistrySnapshot
	for i := range after {
		d, err := subRegistry(&after[i], &before[i])
		if err != nil {
			return nil, err
		}
		if err := total.Merge(&d); err != nil {
			return nil, err
		}
	}
	return &total, nil
}

// counter reads a counter or gauge from a delta (0 when absent).
func counter(s *obs.RegistrySnapshot, name string) float64 {
	if ss := s.Find(name, ""); ss != nil {
		return ss.Value
	}
	return 0
}

// stage returns the decide-stage histogram for one stage label (empty when
// absent).
func stage(s *obs.RegistrySnapshot, name string) *obs.HistogramSnapshot {
	return histSeries(s, "serve_decide_stage_ns", `stage="`+name+`"`)
}

func histSeries(s *obs.RegistrySnapshot, name, labels string) *obs.HistogramSnapshot {
	if ss := s.Find(name, labels); ss != nil && ss.Hist != nil {
		return ss.Hist
	}
	return &obs.HistogramSnapshot{}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
