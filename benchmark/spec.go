package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// workloadSpec is one traffic mix. Device counts were calibrated once on a
// 2-vCPU host (nominal well inside capacity, peak at roughly half of the
// saturation rate) and are frozen here: changing them changes the
// benchmark, not the system.
type workloadSpec struct {
	Name    string
	Proto   string // "bin" (internal/wire) or "json" (HTTP/JSON)
	Shards  int    // 0: devices talk to one pmserve; n: to pmrouter over n pmserve shards
	K       int    // control periods per decide frame
	Nominal int    // devices at nominal load
	Peak    int    // devices at peak load
	// Learn runs pmserve -learn; devices explore with ε = 0.1 and report a
	// reward every rewardEvery periods. The binary protocol's create frame
	// carries no cohort, so every session is in the learning cohort.
	Learn bool
}

const (
	learnEpsilon = 0.1
	rewardEvery  = 4
)

var workloads = []workloadSpec{
	{Name: "bin-k4", Proto: "bin", K: 4, Nominal: 1000, Peak: 5000},
	{Name: "json-k1", Proto: "json", K: 1, Nominal: 100, Peak: 250},
	{Name: "router-k1", Proto: "bin", Shards: 2, K: 1, Nominal: 300, Peak: 450},
	{Name: "learn-k1", Proto: "bin", K: 1, Nominal: 1000, Peak: 1500, Learn: true},
}

func workloadByName(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// rounds is how many times a run repeats its nominal, peak and saturation
// windows. Interleaving spreads every metric's samples over the whole run
// and each metric reports its median over the rounds, so a burst of noise
// from other tenants of the host moves one round, not one metric.
const rounds = 8

// windowPlan holds one round's window lengths: the measured windows share
// the run's measured seconds 6:6:4 (nominal, peak, saturation). The
// warm-up adds an eighth on top, split over the deployments, and is
// discarded. A traced run adds a traced nominal window, half as long,
// after each untraced one.
type windowPlan struct {
	Warm, Nominal, Peak, Saturation time.Duration
}

func planFor(seconds float64) windowPlan {
	s := time.Duration(seconds * float64(time.Second))
	return windowPlan{Warm: s / 8, Nominal: s * 6 / 16 / rounds, Peak: s * 6 / 16 / rounds, Saturation: s * 4 / 16 / rounds}
}

// metricDef names one reported metric and its unit. Directions and bounds
// live in BENCHMARK.json; the tests pin that both lists agree.
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"energy_mj_per_qos", "mJ"},
}

// trackedDiagnostics are the end-to-end diagnostics compare judges like
// per-layer metrics (no bound): they matter to users but repeat too
// loosely on a shared host to gate.
var trackedDiagnostics = []benchMetric{
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "max_dps", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_dec", Unit: "us", Better: "lower"},
}

var perLayerMetrics = []metricDef{
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.inflight_max", "count"},
	{"gen.cpu_us_per_dec", "us"},
	{"device.step_us", "us"},
	{"client.decide_p50_us", "us"},
	{"client.decide_mean_us", "us"},
	{"client.open_us", "us"},
	{"wire.codec_k1_ns", "ns"},
	{"wire.codec_k4_ns", "ns"},
	{"front.stage_us", "us"},
	{"front.unattributed_us", "us"},
	{"front.requests_per_batch", "count"},
	{"batch.queue_wait_us", "us"},
	{"batch.assemble_us", "us"},
	{"batch.occupancy", "count"},
	{"backend.batch_us", "us"},
	{"backend.ns_per_lookup", "ns"},
	{"core.lookup_b32_ns", "ns"},
	{"core.lookup_b256_ns", "ns"},
	{"serve.session_decide_ns", "ns"},
	{"proc.shard_cpu_us_per_dec", "us"},
	{"learn.updates_per_s", "1/s"},
	{"learn.swaps_per_s", "1/s"},
	{"learn.drop_ratio", "ratio"},
	{"learn.td_abs_mean", "reward"},
	{"sim.chip_step_ns", "ns"},
	{"core.agent_step_ns", "ns"},
	{"eval.quick_cpu_s", "s"},
	{"trace.overhead_pct", "%"},
}

// benchFile is the part of BENCHMARK.json the program reads: metric
// directions and regression bounds for compare, and the workloads the
// tests pin to the code.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
