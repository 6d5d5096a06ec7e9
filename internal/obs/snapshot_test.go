package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"rlpm/internal/rng"
)

// shardRegistry builds a registry shaped like one serving shard's: a
// decisions counter, a live-sessions gauge, and a latency histogram, each
// fed the given samples.
func shardRegistry(t *testing.T, decisions uint64, sessions float64, samples []int64) *Registry {
	t.Helper()
	r := NewRegistry()
	c := r.NewCounter("serve_decisions_total", "Decisions served.")
	c.Add(decisions)
	g := r.NewGauge("serve_sessions_live", "Live sessions.")
	g.Set(sessions)
	h := r.NewHistogram("serve_decide_latency_ns", "Decide latency.", Label{Key: "stage", Value: "total"})
	for _, s := range samples {
		h.Observe(s)
	}
	return r
}

// overTheWire simulates a cross-process scrape: serialize the snapshot to
// JSON and decode it into a fresh value, as the router does with each
// shard's GET /debug/obs response.
func overTheWire(t *testing.T, s RegistrySnapshot) *RegistrySnapshot {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out RegistrySnapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &out
}

// TestSnapshotMergeAcrossProcesses pins the router's fleet scrape-merge:
// N shard registries are snapshotted, serialized through JSON (the process
// boundary), merged, and the merged view must agree with a single-process
// oracle registry that saw every sample — counters sum exactly, and every
// histogram quantile is bucket-for-bucket identical.
func TestSnapshotMergeAcrossProcesses(t *testing.T) {
	r := rng.New(7)
	var all []int64
	shards := make([]*Registry, 3)
	var wantDecisions uint64
	for i := range shards {
		n := 500 + r.Intn(500)
		samples := make([]int64, n)
		for j := range samples {
			samples[j] = int64(r.Intn(1 << 20))
		}
		all = append(all, samples...)
		wantDecisions += uint64(n)
		shards[i] = shardRegistry(t, uint64(n), float64(i+1), samples)
	}

	merged := overTheWire(t, shards[0].Snapshot())
	for _, sh := range shards[1:] {
		if err := merged.Merge(overTheWire(t, sh.Snapshot())); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}

	if c := merged.Find("serve_decisions_total", ""); c == nil || uint64(c.Value) != wantDecisions {
		t.Fatalf("merged decisions = %+v, want %d", c, wantDecisions)
	}
	if g := merged.Find("serve_sessions_live", ""); g == nil || g.Value != 1+2+3 {
		t.Fatalf("merged sessions gauge = %+v, want 6", g)
	}

	// Single-process oracle: one histogram that observed every sample.
	oh := NewHistogram("serve_decide_latency_ns", "Decide latency.")
	for _, s := range all {
		oh.Observe(s)
	}
	want := oh.Snapshot()
	got := merged.Find("serve_decide_latency_ns", `stage="total"`)
	if got == nil || got.Hist == nil {
		t.Fatalf("merged histogram missing: %+v", got)
	}
	if got.Hist.Count != want.Count || got.Hist.Sum != want.Sum || got.Hist.Counts != want.Counts {
		t.Fatalf("merged histogram differs from single-process oracle:\n got count=%d sum=%d\nwant count=%d sum=%d",
			got.Hist.Count, got.Hist.Sum, want.Count, want.Sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if g, w := got.Hist.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("q%.2f: merged %v != oracle %v", q, g, w)
		}
	}
	// And the recovered quantile brackets the exact one within bucket
	// resolution: the exact sample quantile lies at or below the recovered
	// bucket upper bound.
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	exact := float64(all[len(all)/2])
	if rec := got.Hist.Quantile(0.5); rec < exact {
		t.Fatalf("recovered p50 %v below exact sample p50 %v", rec, exact)
	}
}

// TestSnapshotPrometheusMatchesRegistry pins that a snapshot's JSON round
// trip (what a shard's GET /debug/obs carries to the router) renders the
// same bytes as the live registry it came from, so the router's merged
// view is indistinguishable in shape from a single process's /metrics.
func TestSnapshotPrometheusMatchesRegistry(t *testing.T) {
	reg := shardRegistry(t, 42, 3, []int64{10, 100, 5000, 1 << 30})
	reg.NewGaugeFunc("serve_uptime_s", "Uptime.", func() float64 { return 12.5 })
	reg.NewCounterFunc("serve_rewards_total", "Rewards.", func() uint64 { return 9 })

	var live, snap bytes.Buffer
	if err := reg.WritePrometheus(&live); err != nil {
		t.Fatalf("registry write: %v", err)
	}
	s := overTheWire(t, reg.Snapshot())
	if err := s.WritePrometheus(&snap); err != nil {
		t.Fatalf("snapshot write: %v", err)
	}
	if live.String() != snap.String() {
		t.Fatalf("snapshot exposition differs from live registry:\n--- live ---\n%s\n--- snapshot ---\n%s", live.String(), snap.String())
	}
	if !strings.Contains(snap.String(), "serve_decide_latency_ns_bucket") {
		t.Fatalf("exposition missing histogram buckets:\n%s", snap.String())
	}
}

// TestSnapshotMergeDisjointSeries checks that series present on only one
// shard survive the merge and land in deterministic (name, labels) order.
func TestSnapshotMergeDisjointSeries(t *testing.T) {
	a := NewRegistry()
	a.NewCounter("alpha_total", "A.").Add(1)
	b := NewRegistry()
	b.NewCounter("beta_total", "B.").Add(2)
	b.NewCounter("alpha_total", "A.").Add(10)

	m := overTheWire(t, b.Snapshot())
	if err := m.Merge(overTheWire(t, a.Snapshot())); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(m.Series) != 2 {
		t.Fatalf("merged series count %d, want 2", len(m.Series))
	}
	if m.Series[0].Name != "alpha_total" || m.Series[1].Name != "beta_total" {
		t.Fatalf("merged order wrong: %s, %s", m.Series[0].Name, m.Series[1].Name)
	}
	if m.Series[0].Value != 11 || m.Series[1].Value != 2 {
		t.Fatalf("merged values %v, %v; want 11, 2", m.Series[0].Value, m.Series[1].Value)
	}
}

// TestSnapshotMergeTypeConflict checks that merging incompatible registry
// shapes fails loudly rather than silently summing unlike kinds.
func TestSnapshotMergeTypeConflict(t *testing.T) {
	a := NewRegistry()
	a.NewCounter("x_total", "X.").Add(1)
	b := NewRegistry()
	b.NewGauge("x_total", "X.").Set(1)
	m := overTheWire(t, a.Snapshot())
	if err := m.Merge(overTheWire(t, b.Snapshot())); err == nil {
		t.Fatal("merge of counter vs gauge succeeded, want error")
	}
}
