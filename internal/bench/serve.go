package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"rlpm/internal/fault"
	"rlpm/internal/serve"
)

// ServeOptions parameterizes the `serve` experiment: train a policy, host
// it behind cmd/pmserve's HTTP stack on a loopback listener, and drive it
// with a fleet of simulated devices, reporting decision latency and
// throughput. Unlike the table/figure experiments this one measures
// wall-clock behaviour of a concurrent server, so it is reported through
// BENCH_pr6.json (cmd/pmload, `make bench-serve`) rather than the
// deterministic golden registry.
type ServeOptions struct {
	Options
	// Devices is the simulated fleet size.
	Devices int
	// Duration is the wall-clock load window.
	Duration time.Duration
	// Backend selects the serving arm of the A/B: "sw" (in-memory table
	// walk) or "hw" (modeled accelerator behind the MMIO driver).
	Backend string
	// Proto selects the decision transport: "json" (default) or "bin"
	// (the internal/wire binary protocol over its own loopback listener).
	Proto string
	// MaxBatch caps the server's lookup coalescing.
	MaxBatch int
	// Epsilon is the per-session exploration rate devices request.
	Epsilon float64
	// Scenario is the workload every device runs (default "gaming").
	Scenario string
	// PeriodsPerFrame bundles that many control periods per decide frame
	// (bin protocol only; default 1).
	PeriodsPerFrame int
	// Fault optionally wraps the hw backend with the PR-2 injector so the
	// retry/degradation path serves under load.
	Fault *fault.Config
	// CheckpointPath, when set, is where the hosted server persists its
	// model on POST /v1/checkpoint.
	CheckpointPath string
}

// ServeResult is the load report plus the server-side metrics snapshot.
type ServeResult struct {
	Backend         string           `json:"backend"`
	Proto           string           `json:"proto"`
	PeriodsPerFrame int              `json:"periods_per_frame,omitempty"`
	Report          serve.LoadReport `json:"report"`
	// Shared-policy reads from the server side (self-hosted runs only):
	// frames that read the shared policy, mean lookups per such frame,
	// and the most lookups one frame read.
	Batches            uint64  `json:"batches,omitempty"`
	MeanBatchOccupancy float64 `json:"mean_batch_occupancy,omitempty"`
	MaxBatchOccupancy  uint64  `json:"max_batch_occupancy,omitempty"`
}

// WriteText implements Renderable for ad-hoc printing. It prints both the
// exact sample quantiles and the histogram-recovered ones so a drift
// between the two (beyond bucket resolution) is visible at a glance.
func (r *ServeResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "serve: backend=%s proto=%s devices=%d decisions=%d errors=%d %.0f dec/s p50=%.0fns p99=%.0fns\n",
		r.Backend, r.Proto, r.Report.Devices, r.Report.Decisions, r.Report.Errors,
		r.Report.DecisionsPerSec, r.Report.LatencyNs.P50, r.Report.LatencyNs.P99)
	if len(r.Report.LatencyBuckets) > 0 {
		fmt.Fprintf(w, "serve: histogram p50=%.0fns p90=%.0fns p99=%.0fns max=%.0fns over %d populated buckets\n",
			r.Report.LatencyHistNs.P50, r.Report.LatencyHistNs.P90,
			r.Report.LatencyHistNs.P99, r.Report.LatencyHistNs.Max,
			len(r.Report.LatencyBuckets))
	}
	if r.Batches > 0 {
		fmt.Fprintf(w, "serve: batches=%d mean_occupancy=%.2f max_occupancy=%d\n",
			r.Batches, r.MeanBatchOccupancy, r.MaxBatchOccupancy)
	}
}

// TrainedServeModel trains a policy on opt's settings and freezes it into
// a serving model with its backend — the pieces NewServeServer assembles,
// exposed separately for harnesses (the chaos runner) that manage server
// lifecycles themselves.
func TrainedServeModel(o ServeOptions) (*serve.Model, serve.Backend, error) {
	opt := o.Options.normalized()
	scen := o.Scenario
	if scen == "" {
		scen = "gaming"
	}
	p, err := trainedPolicy(scen, opt, coreConfig())
	if err != nil {
		return nil, nil, err
	}
	model, err := serve.ModelFromPolicy(p, coreConfig())
	if err != nil {
		return nil, nil, err
	}
	var backend serve.Backend
	switch o.Backend {
	case "", "sw":
		backend = serve.NewSWBackend(model)
	case "hw":
		hwCfg := serve.DefaultHWBackendConfig()
		if o.Fault != nil {
			inj, err := fault.NewInjector(*o.Fault)
			if err != nil {
				return nil, nil, err
			}
			hwCfg.Injector = inj
		}
		backend, err = serve.NewHWBackend(model, hwCfg)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown serve backend %q", o.Backend)
	}
	return model, backend, nil
}

// NewServeServer trains a policy on opt's settings and assembles a
// serve.Server around it — the exact construction cmd/pmserve performs,
// shared so the experiment, the smoke tests, and the self-hosted load
// generator measure the same stack.
func NewServeServer(o ServeOptions) (*serve.Server, error) {
	model, backend, err := TrainedServeModel(o)
	if err != nil {
		return nil, err
	}
	return serve.New(model, backend, serve.Config{
		MaxBatch:       o.MaxBatch,
		CheckpointPath: o.CheckpointPath,
	})
}

// RunServe hosts a freshly trained server on a loopback listener and runs
// the load generator against it — the self-contained form of the serve
// experiment.
func RunServe(ctx context.Context, o ServeOptions) (*ServeResult, error) {
	if o.Devices == 0 {
		o.Devices = 50
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	srv, err := NewServeServer(o)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
		<-done
	}()

	proto := o.Proto
	if proto == "" {
		proto = "json"
	}
	var binAddr string
	if proto == "bin" {
		binLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		binAddr = binLn.Addr().String()
		binDone := make(chan error, 1)
		go func() { binDone <- srv.ServeBin(binLn) }()
		defer func() {
			binLn.Close()
			<-binDone
		}()
	}

	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:         "http://" + ln.Addr().String(),
		Proto:           proto,
		BinAddr:         binAddr,
		Devices:         o.Devices,
		Duration:        o.Duration,
		Scenario:        o.Scenario,
		Seed:            o.Seed,
		Epsilon:         o.Epsilon,
		PeriodsPerFrame: o.PeriodsPerFrame,
	})
	if err != nil {
		return nil, err
	}
	backend := o.Backend
	if backend == "" {
		backend = "sw"
	}
	met := srv.MetricsSnapshot()
	return &ServeResult{
		Backend:            backend,
		Proto:              proto,
		PeriodsPerFrame:    rep.PeriodsPerFrame,
		Report:             *rep,
		Batches:            met.Batches,
		MeanBatchOccupancy: met.MeanBatchOccupancy,
		MaxBatchOccupancy:  met.MaxBatchOccupancy,
	}, nil
}
