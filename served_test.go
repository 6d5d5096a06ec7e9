package rlpm_test

// The served-device oracle: a frozen policy served over any endpoint makes
// every device decide exactly as sim.Run makes the same device decide in
// process, so the serving tier's devices are the devices behind T1.

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"

	"rlpm/internal/bench"
	"rlpm/internal/core"
	"rlpm/internal/serve"
	"rlpm/internal/shard"
	"rlpm/internal/sim"
)

// levelRecorder is a governor that records every level it decides.
type levelRecorder struct {
	*core.Policy
	levels []int
}

func (r *levelRecorder) Decide(obs []sim.Observation) []int {
	return r.DecideInto(make([]int, len(obs)), obs)
}

func (r *levelRecorder) DecideInto(dst []int, obs []sim.Observation) []int {
	dst = r.Policy.DecideInto(dst, obs)
	r.levels = append(r.levels, dst...)
	return dst
}

// simDevice is one fleet device run by sim.Run: a fresh frozen policy from
// snap on the default chip, the device's DeviceSeed stream, 50 ms periods.
func simDevice(t *testing.T, cfg core.Config, snap core.Snapshot, fleet serve.FleetConfig, idx int) ([]int, sim.Result) {
	t.Helper()
	p, err := core.PolicyFromTables(cfg, snap.State, core.NewFlatTables(snap.Tables))
	if err != nil {
		t.Fatal(err)
	}
	seed := serve.DeviceSeed(fleet.Seed, idx)
	chip := newChip(t)
	scen := newScenario(t, fleet.Scenario, chip.NumClusters(), seed)
	gov := &levelRecorder{Policy: p}
	res, err := sim.Run(chip, scen, gov, sim.Config{PeriodS: 0.05, DurationS: float64(fleet.Periods) * 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS.Periods != fleet.Periods {
		t.Fatalf("sim.Run ran %d periods, want %d", res.QoS.Periods, fleet.Periods)
	}
	return gov.levels, res
}

// levelDiff counts the levels in which got differs from want (a missing or
// extra level counts as differing) and the period of the first of them,
// -1 when none do.
func levelDiff(got, want []int, clusters int) (n, first int) {
	first = -1
	for i := 0; i < max(len(got), len(want)); i++ {
		if i < len(got) && i < len(want) && got[i] == want[i] {
			continue
		}
		if n++; first < 0 {
			first = i / clusters
		}
	}
	return n, first
}

// TestServedMatchesSim serves one frozen policy, trained as pmserve's quick
// mode trains it, at ε 0 four ways — an in-process session, pmserve's JSON
// front, pmserve's binary front, and a 2-shard router — and requires every
// device's levels, energy and QoS to be sim.Run's for the same device on a
// fresh policy from the same snapshot. The three remote paths run through
// RunFleet's device loop, the in-process one through the oracle's.
func TestServedMatchesSim(t *testing.T) {
	opt := bench.DefaultOptions()
	opt.Quick = true
	opt.Seed = 1
	model, _, err := bench.TrainedServeModel(bench.ServeOptions{Options: opt, Scenario: "gaming"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, snap := model.Config(), model.Snapshot()
	ctx := context.Background()

	srv, err := serve.New(model, nil, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	jsonClient := serve.NewClient(hs.URL)
	t.Cleanup(jsonClient.CloseIdleConnections)
	binClient := serve.NewBinClient(serveBin(t, srv.ServeBin))
	t.Cleanup(binClient.Close)

	fleet, err := shard.NewFleet(model, 2, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	router, err := shard.NewRouter(shard.RouterConfig{RingSeed: 1}, fleet.Specs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	routerClient := serve.NewBinClient(serveBin(t, router.ServeBin))
	t.Cleanup(routerClient.Close)

	for _, scenario := range []string{"gaming", "video"} {
		fc := serve.FleetConfig{Devices: 3, Periods: 400, Seed: 1, Scenario: scenario}
		runs := map[string]*serve.FleetRun{
			"json":   serve.RunFleet(ctx, fc, jsonClient.CreateSession),
			"bin":    serve.RunFleet(ctx, fc, binClient.OpenSession),
			"router": serve.RunFleet(ctx, fc, routerClient.OpenSession),
		}
		if runs["in-process"], err = fc.Oracle(model); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < fc.Devices; idx++ {
			want, res := simDevice(t, cfg, snap, fc, idx)
			for _, path := range []string{"in-process", "json", "bin", "router"} {
				run := runs[path]
				dev := fmt.Sprintf("%s device %d served %s", scenario, idx, path)
				if err := run.Errs[idx]; err != nil {
					t.Errorf("%s: %v", dev, err)
					continue
				}
				if n, first := levelDiff(run.Traces[idx], want, model.Clusters()); n > 0 {
					t.Errorf("%s: %d of %d levels differ from sim.Run, first at period %d", dev, n, len(want), first)
				}
				if got := run.QoS[idx]; got != res.QoS {
					t.Errorf("%s: QoS and energy %+v, sim.Run %+v", dev, got, res.QoS)
				}
			}
		}
	}
	for _, name := range []string{"s0", "s1"} {
		if m := fleet.Server(name).Registry().Snapshot(); m.Value("serve_decisions_total", "") == 0 {
			t.Errorf("router placed no device on shard %s", name)
		}
	}
}

// serveBin starts serve on a loopback listener and returns its address.
func serveBin(t *testing.T, serve func(net.Listener) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}
