// Package obs is the fleet observability layer: a lightweight,
// allocation-free metrics registry (atomic counters, gauges, and
// log-bucketed latency histograms) plus a bounded ring-buffer event log
// for structured runtime events.
//
// The journal extension of the paper makes decision latency a headline
// claim, so the serving stack has to measure itself with the same rigor
// the experiment harness applies to energy numbers. This package is what
// the decide path, the health ladder, and the checkpoint store report
// into:
//
//   - Counter and Gauge are single atomic words; Add/Set/Observe never
//     allocate, never lock, and are safe from any goroutine — the
//     hot-path contract pinned by the AllocsPerRun regression test;
//   - Histogram buckets nanosecond latencies into log-spaced bins (4
//     sub-buckets per power of two), so p50/p90/p99 are recoverable
//     within bucket resolution from a fixed ~1 KiB footprint, and
//     snapshots merge across shards and devices;
//   - Registry renders everything in Prometheus text exposition format
//     with deterministic metric and label ordering, so scrapes diff
//     cleanly and the exposition test can pin a golden fixture. It
//     renders its snapshot (snapshot.go), the form a process also
//     serializes and a router merges, so one writer renders every
//     exposition;
//   - EventLog keeps the last N structured events (health-ladder
//     transitions, checkpoint outcomes, injected faults) in a bounded
//     ring, served by GET /debug/events.
//
// Everything is dependency-free (standard library only) so any layer —
// hwpolicy, fault, serve, the cmd binaries — can report into it without
// import cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to a metric at
// registration. Labels are sorted by key and pre-rendered, so exposition
// ordering is stable by construction.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Uint64
	desc desc
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	desc desc
}

// Set stores v. Allocation-free.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// desc is the identity and rendering info shared by all metric kinds.
type desc struct {
	name   string
	help   string
	labels string // pre-rendered `k1="v1",k2="v2"`, "" when unlabeled
	typ    string // prometheus TYPE: counter | gauge | histogram
}

// metric is the registry's internal view of one registered series.
type metric struct {
	desc desc
	// snap captures the series' current value in process-portable form:
	// what Registry.Snapshot returns and every exposition renders.
	snap func() SeriesSnapshot
}

// Registry holds registered metrics and renders them in Prometheus text
// exposition format. Registration locks; reads of registered metrics do
// not. Metrics are keyed by (name, labels): registering the same name
// twice with a different type or help panics — that is a programming
// error, caught at wiring time.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]string // name -> type, for cross-registration checks
	keys    map[string]bool   // name+labels uniqueness
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]string), keys: make(map[string]bool)}
}

// register validates and stores a series, keeping the slice sorted by
// (name, labels) so exposition order is deterministic.
func (r *Registry) register(m metric) {
	if !validName(m.desc.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.desc.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if typ, ok := r.byName[m.desc.name]; ok && typ != m.desc.typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", m.desc.name, typ, m.desc.typ))
	}
	key := m.desc.name + "{" + m.desc.labels + "}"
	if r.keys[key] {
		panic(fmt.Sprintf("obs: duplicate metric %s", key))
	}
	r.keys[key] = true
	r.byName[m.desc.name] = m.desc.typ
	i := sort.Search(len(r.metrics), func(i int) bool {
		d := &r.metrics[i].desc
		if d.name != m.desc.name {
			return d.name > m.desc.name
		}
		return d.labels > m.desc.labels
	})
	r.metrics = append(r.metrics, metric{})
	copy(r.metrics[i+1:], r.metrics[i:])
	r.metrics[i] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{desc: desc{name: name, help: help, labels: renderLabels(labels), typ: "counter"}}
	r.register(metric{desc: c.desc, snap: func() SeriesSnapshot {
		return scalarSnapshot(c.desc, float64(c.Load()))
	}})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{desc: desc{name: name, help: help, labels: renderLabels(labels), typ: "gauge"}}
	r.register(metric{desc: g.desc, snap: func() SeriesSnapshot {
		return scalarSnapshot(g.desc, g.Load())
	}})
	return g
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters owned elsewhere.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	d := desc{name: name, help: help, labels: renderLabels(labels), typ: "counter"}
	r.register(metric{desc: d, snap: func() SeriesSnapshot {
		return scalarSnapshot(d, float64(fn()))
	}})
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time (uptime, live-session counts, checkpoint age).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	d := desc{name: name, help: help, labels: renderLabels(labels), typ: "gauge"}
	r.register(metric{desc: d, snap: func() SeriesSnapshot {
		return scalarSnapshot(d, fn())
	}})
}

// NewHistogram registers and returns a latency histogram (see hist.go for
// the bucket layout).
func (r *Registry) NewHistogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{desc: desc{name: name, help: help, labels: renderLabels(labels), typ: "histogram"}}
	r.register(metric{desc: h.desc, snap: func() SeriesSnapshot {
		hs := h.Snapshot()
		return SeriesSnapshot{Name: h.desc.name, Labels: h.desc.labels, Help: h.desc.help, Type: "histogram", Hist: &hs}
	}})
	return h
}

// WritePrometheus renders the registry's current snapshot in Prometheus
// text exposition format (RegistrySnapshot.WritePrometheus).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	return s.WritePrometheus(w)
}

// series renders `name` or `name{labels}`.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// seriesLe renders `name_bucket{labels,le="bound"}` without caring whether
// labels is empty.
func seriesLe(name, labels, le string) string {
	if labels == "" {
		return name + `_bucket{le="` + le + `"}`
	}
	return name + `_bucket{` + labels + `,le="` + le + `"}`
}

// renderLabels sorts labels by key and renders the inner `k="v"` list.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := ""
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q", l.Key))
		}
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out
}

// escapeLabel applies the exposition-format escapes for label values.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// formatFloat renders a float the way Prometheus expects (shortest exact
// form; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
