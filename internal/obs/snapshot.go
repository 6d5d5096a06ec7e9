// Registry snapshots: a process-portable, mergeable form of every
// registered series. A shard serializes its registry to JSON (GET
// /debug/obs), the router deserializes N of them, folds them together with
// Merge, and renders the fleet-wide view in the same Prometheus text
// format a single process would — counters sum, histograms merge
// bucket-wise (so fleet quantiles stay exact within bucket resolution),
// and gauges sum (live-session counts and queue depths aggregate across
// shards; rates and ages should be scraped per shard, not merged).
package obs

import (
	"fmt"
	"io"
	"sort"
)

// SeriesSnapshot is one series' point-in-time value. Exactly one of Value
// (counter, gauge) or Hist (histogram) is meaningful, selected by Type.
type SeriesSnapshot struct {
	Name   string             `json:"name"`
	Labels string             `json:"labels,omitempty"` // pre-rendered `k1="v1",k2="v2"`
	Help   string             `json:"help,omitempty"`
	Type   string             `json:"type"` // counter | gauge | histogram
	Value  float64            `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

func scalarSnapshot(d desc, v float64) SeriesSnapshot {
	return SeriesSnapshot{Name: d.name, Labels: d.labels, Help: d.help, Type: d.typ, Value: v}
}

// RegistrySnapshot is every registered series, ordered by (name, labels) —
// the same deterministic order WritePrometheus uses.
type RegistrySnapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures the registry's current state. The result is safe to
// serialize (JSON), merge with snapshots from other processes, and render.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	out := RegistrySnapshot{Series: make([]SeriesSnapshot, 0, len(ms))}
	for _, m := range ms {
		out.Series = append(out.Series, m.snap())
	}
	return out
}

// sortSeries restores (name, labels) order — merged snapshots interleave
// series from differently shaped registries.
func (s *RegistrySnapshot) sortSeries() {
	sort.Slice(s.Series, func(i, j int) bool {
		a, b := &s.Series[i], &s.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
}

// Merge folds other into s by (name, labels): counters and gauges add,
// histograms merge bucket-wise with max-of-max. Series present only in
// other are appended. A type conflict for the same series is an error —
// the snapshots came from incompatible registry shapes.
func (s *RegistrySnapshot) Merge(other *RegistrySnapshot) error {
	idx := make(map[string]int, len(s.Series))
	for i := range s.Series {
		ss := &s.Series[i]
		idx[ss.Name+"{"+ss.Labels+"}"] = i
	}
	for i := range other.Series {
		os := &other.Series[i]
		j, ok := idx[os.Name+"{"+os.Labels+"}"]
		if !ok {
			cp := *os
			if os.Hist != nil {
				h := *os.Hist
				cp.Hist = &h
			}
			idx[os.Name+"{"+os.Labels+"}"] = len(s.Series)
			s.Series = append(s.Series, cp)
			continue
		}
		ss := &s.Series[j]
		if ss.Type != os.Type {
			return fmt.Errorf("obs: merge type conflict for %s{%s}: %s vs %s", ss.Name, ss.Labels, ss.Type, os.Type)
		}
		switch ss.Type {
		case "histogram":
			if ss.Hist == nil {
				ss.Hist = &HistogramSnapshot{}
			}
			if os.Hist != nil {
				ss.Hist.Merge(os.Hist)
			}
		default:
			ss.Value += os.Value
		}
	}
	s.sortSeries()
	return nil
}

// Find returns the series with the given name and labels, or nil.
func (s *RegistrySnapshot) Find(name, labels string) *SeriesSnapshot {
	for i := range s.Series {
		if s.Series[i].Name == name && s.Series[i].Labels == labels {
			return &s.Series[i]
		}
	}
	return nil
}

// Value returns the value of the counter or gauge series with the given
// name and labels, 0 when the snapshot has none.
func (s *RegistrySnapshot) Value(name, labels string) float64 {
	if ss := s.Find(name, labels); ss != nil {
		return ss.Value
	}
	return 0
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format: series ordered by (name, labels), HELP and TYPE once per name.
// It is the one exposition writer: Registry.WritePrometheus renders its
// own snapshot here, and a merged snapshot reads like one process's
// /metrics. A counter renders as an integer, exact up to 2^53.
func (s *RegistrySnapshot) WritePrometheus(w io.Writer) error {
	s.sortSeries()
	prev := ""
	for i := range s.Series {
		ss := &s.Series[i]
		if ss.Name != prev {
			if ss.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ss.Name, ss.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ss.Name, ss.Type); err != nil {
				return err
			}
			prev = ss.Name
		}
		var err error
		switch ss.Type {
		case "histogram":
			hs := ss.Hist
			if hs == nil {
				hs = &HistogramSnapshot{}
			}
			err = writePromHist(w, ss.Name, ss.Labels, hs)
		case "counter":
			// Counters are integral in the native exposition; keep that shape.
			_, err = fmt.Fprintf(w, "%s %d\n", series(ss.Name, ss.Labels), uint64(ss.Value))
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", series(ss.Name, ss.Labels), formatFloat(ss.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHist renders one histogram snapshot in Prometheus histogram
// form: cumulative _bucket series with le labels, then _sum and _count.
func writePromHist(w io.Writer, name, labels string, s *HistogramSnapshot) error {
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if _, err := io.WriteString(w, seriesLe(name, labels, formatFloat(bucketBounds[i]))+" "+utoa(cum)+"\n"); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, series(name+"_sum", labels)+" "+itoa(s.Sum)+"\n"); err != nil {
		return err
	}
	_, err := io.WriteString(w, series(name+"_count", labels)+" "+utoa(s.Count)+"\n")
	return err
}
