// Command pmload drives simulated device fleets at the serving tier and
// exits non-zero when a fleet breaks an invariant. Each device simulates
// its own chip and workload stream and asks its session for every
// period's OPP decision; the remote and chaos modes run one fleet driver
// (serve.RunFleet).
//
// Four modes:
//
//   - -addr http://host:port drives -devices × -periods against a running
//     pmserve or pmrouter over HTTP/JSON, or over the binary protocol with
//     -proto bin -bin-addr host:port (the CI smoke jobs). It fails on any
//     device error, or when the acked decisions are not devices×periods;
//   - -chaos serves a quick-trained policy behind a seeded fault-injecting
//     proxy, optionally restarts the server mid-run, and checks every
//     decision against a fault-free oracle (serve.RunChaos);
//   - -shard-chaos does the same through a router in front of -shards
//     shards, with one seeded shard remove and one add mid-run
//     (shard.RunRebalance);
//   - -learn runs the seeded training-while-serving harness twice and
//     checks the replay (serve.RunLearnReplay).
//
// Usage:
//
//	pmload -addr http://127.0.0.1:7421 -devices 50 -periods 200
//	pmload -addr http://127.0.0.1:7421 -proto bin -bin-addr 127.0.0.1:7422
//	pmload -chaos -proto bin -devices 6 -periods 80 -restart crash
//	pmload -learn -devices 8 -periods 120
//
// Exit status is 0 when every invariant held, 1 when one did not, and 2
// on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rlpm/internal/bench"
	"rlpm/internal/chaos"
	"rlpm/internal/serve"
	"rlpm/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is pmload's parsed command line.
type options struct {
	addr, binAddr, proto string
	fleet                serve.FleetConfig // every mode's devices
	quick                bool

	chaosMode, shardChaos, learnMode bool
	restart                          string
	faults                           chaos.Config
	shards                           int
	kill, shardFaults                bool
}

// parse reads args into options, reporting usage errors to stderr.
func parse(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("pmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "", "remote mode: the target server's URL (pmserve or pmrouter)")
	fs.StringVar(&o.binAddr, "bin-addr", "", "remote mode: the server's binary listener (host:port), required with -proto bin")
	fs.StringVar(&o.proto, "proto", "json", "decision transport: json or bin")
	fs.IntVar(&o.fleet.Devices, "devices", 50, "simulated device count")
	fs.IntVar(&o.fleet.Periods, "periods", 200, "decisions per device")
	fs.StringVar(&o.fleet.Scenario, "scenario", "gaming", "workload scenario each device runs")
	fs.Uint64Var(&o.fleet.Seed, "seed", 1, "base seed for per-device workload/exploration streams")
	fs.Float64Var(&o.fleet.Epsilon, "epsilon", 0.2, "per-session exploration rate; 0 serves greedy sessions")
	fs.BoolVar(&o.quick, "quick", true, "harness modes: train the served policy quickly")

	fs.BoolVar(&o.chaosMode, "chaos", false, "run the chaos harness: inject faults, optionally restart the server mid-run, and verify zero lost/duplicated/changed decisions")
	fs.StringVar(&o.restart, "restart", "", "chaos mode: kill the server mid-run: 'crash' (abrupt) or 'drain' (graceful + checkpoint); empty never")
	fs.Float64Var(&o.faults.DropRate, "drop", 0.02, "chaos modes: per-event connection-drop probability")
	fs.Float64Var(&o.faults.PartialWriteRate, "partial", 0.05, "chaos modes: per-write partial-write probability")
	fs.Float64Var(&o.faults.CorruptRate, "corrupt", 0, "chaos modes: per-write frame-corruption probability")
	fs.Float64Var(&o.faults.LatencyRate, "latency", 0.05, "chaos modes: per-write latency-spike probability")
	fs.DurationVar(&o.faults.LatencyFor, "latency-for", 2*time.Millisecond, "chaos modes: latency-spike duration")

	fs.BoolVar(&o.shardChaos, "shard-chaos", false, "run the sharded rebalance harness: N shards behind a router, one seeded remove and one add mid-run, differential oracle")
	fs.IntVar(&o.shards, "shards", 2, "shard-chaos: initial shard count")
	fs.BoolVar(&o.kill, "kill", false, "shard-chaos: kill the victim shard abruptly instead of draining it")
	fs.BoolVar(&o.shardFaults, "shard-faults", false, "shard-chaos: also inject the -drop/-partial/-corrupt/-latency fault schedule between devices and router")

	fs.BoolVar(&o.learnMode, "learn", false, "run the seeded training-while-serving harness: a frozen-vs-learning device A/B with live Q-updates, then verify determinism and that the learned checkpoint reloads")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case o.proto != "json" && o.proto != "bin":
		err = fmt.Errorf("unknown -proto %q (want json or bin)", o.proto)
	case !o.chaosMode && !o.shardChaos && !o.learnMode && o.addr == "":
		err = errors.New("pick a mode: -addr, -chaos, -shard-chaos or -learn")
	case o.addr != "" && o.proto == "bin" && o.binAddr == "":
		err = errors.New("-proto bin needs -bin-addr")
	case o.shardChaos:
		err = o.rebalanceConfig().Validate()
	default:
		err = o.fleet.Validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "pmload:", err)
		fs.Usage()
	}
	return o, err
}

// run executes one pmload invocation and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if !o.learnMode && !o.chaosMode && !o.shardChaos {
		return o.remoteFleet(ctx, stdout, stderr)
	}
	// The harness modes serve a policy trained here.
	opt := bench.DefaultOptions()
	opt.Quick = o.quick
	opt.Seed = o.fleet.Seed
	model, _, err := bench.TrainedServeModel(bench.ServeOptions{Options: opt, Scenario: o.fleet.Scenario})
	if err != nil {
		fmt.Fprintln(stderr, "pmload:", err)
		return 1
	}
	switch {
	case o.learnMode:
		return runLearn(model, serve.LearnLoadConfig{FleetConfig: o.fleet}, stdout, stderr)
	case o.chaosMode:
		cfg := serve.ChaosConfig{FleetConfig: o.fleet, Proto: o.proto, Faults: o.faults, Restart: o.restart}
		return runChaos(ctx, model, cfg, stdout, stderr)
	default:
		return runShardChaos(ctx, model, o.rebalanceConfig(), stdout, stderr)
	}
}

// rebalanceConfig is -shard-chaos's run: one remove and one add.
func (o *options) rebalanceConfig() shard.RebalanceConfig {
	cfg := shard.RebalanceConfig{FleetConfig: o.fleet, Proto: o.proto, Shards: o.shards, Rebalance: true, Kill: o.kill}
	if o.shardFaults {
		cfg.Faults = o.faults
	}
	return cfg
}

// remoteFleet drives the fleet, on the harnesses' reward cadence, against
// a running server once it answers /healthz. pmload does not know the
// served model, so the fleet is held to the device and completeness
// invariants only.
func (o *options) remoteFleet(ctx context.Context, stdout, stderr io.Writer) int {
	cfg := o.fleet.WithDefaults()
	hc := serve.NewClient(o.addr)
	defer hc.CloseIdleConnections()
	if err := hc.WaitHealthy(ctx, 10*time.Second); err != nil {
		fmt.Fprintln(stderr, "pmload:", err)
		return 1
	}
	open := hc.CreateSession
	if o.proto == "bin" {
		bc := serve.NewBinClient(o.binAddr)
		defer bc.Close()
		open = bc.OpenSession
	}
	start := time.Now()
	run := serve.RunFleet(ctx, cfg, open)
	elapsed := time.Since(start).Seconds()
	failed := 0
	for _, err := range run.Errs {
		if err != nil {
			failed++
		}
	}
	fmt.Fprintf(stdout, "serve: proto=%s devices=%d periods=%d epsilon=%g decisions=%d rewards=%d errors=%d %.0f dec/s in %.2fs\n",
		o.proto, cfg.Devices, cfg.Periods, cfg.Epsilon, run.Decisions, run.Rewards, failed, float64(run.Decisions)/elapsed, elapsed)
	if err := serve.FleetVerdict(cfg, run, 0, serve.Hygiene{}); err != nil {
		fmt.Fprintln(stderr, "pmload: fleet invariant violated:", err)
		return 1
	}
	return 0
}

// runLearn runs the seeded training-while-serving harness twice: half the
// fleet learns (decisions follow the live tables, rewards feed
// Q-updates), half is frozen on the construction-time model as the
// control arm.
func runLearn(model *serve.Model, cfg serve.LearnLoadConfig, stdout, stderr io.Writer) int {
	rep, err := serve.RunLearnReplay(model, cfg)
	if rep != nil {
		fmt.Fprintf(stdout, "learn: devices=%d periods=%d epsilon=%g updates=%d swaps=%d rejected=%d\n",
			rep.Devices, rep.Periods, cfg.Epsilon, rep.Updates, rep.Swaps, rep.Rejected)
		for _, arm := range []struct {
			name string
			a    serve.LearnArm
		}{{"learning", rep.Learning}, {"frozen", rep.Frozen}} {
			fmt.Fprintf(stdout, "learn: arm=%-8s devices=%d rewards=%d mean_reward=%.4f energy=%.4fJ mean_qos=%.4f\n",
				arm.name, arm.a.Devices, arm.a.Rewards, arm.a.MeanReward, arm.a.EnergyJ, arm.a.MeanQoS)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "pmload: learn invariant violated:", err)
		return 1
	}
	fmt.Fprintln(stdout, "learn: all invariants held (replay deterministic, checkpoint reloads)")
	return 0
}

// runChaos serves a trained policy to the chaos harness. A drain restart
// writes its farewell checkpoint into a temporary directory.
func runChaos(ctx context.Context, model *serve.Model, cfg serve.ChaosConfig, stdout, stderr io.Writer) int {
	if cfg.Restart == "drain" {
		dir, err := os.MkdirTemp("", "pmload-chaos-*")
		if err != nil {
			fmt.Fprintln(stderr, "pmload:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointPath = filepath.Join(dir, "drain.ckpt")
	}
	rep, err := serve.RunChaos(ctx, model, cfg)
	if rep != nil {
		fmt.Fprintf(stdout, "chaos: proto=%s devices=%d periods=%d epsilon=%g decisions=%d retries=%d resumes=%d restarts=%d mismatches=%d in %.2fs\n",
			rep.Proto, rep.Devices, rep.Periods, cfg.Epsilon, rep.Decisions, rep.Retries, rep.Resumes, rep.Restarts, rep.Mismatches, rep.DurationS)
		fmt.Fprintf(stdout, "chaos: proxy conns=%d drops=%d stalls=%d partials=%d corrupts=%d delays=%d\n",
			rep.ProxyConns, rep.ProxyDrops, rep.ProxyStalls, rep.ProxyPartials, rep.ProxyCorrupts, rep.ProxyDelays)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pmload: chaos invariant violated:", err)
		return 1
	}
	fmt.Fprintln(stdout, "chaos: all invariants held")
	return 0
}

// runShardChaos serves a trained policy to the sharded rebalance harness.
func runShardChaos(ctx context.Context, model *serve.Model, cfg shard.RebalanceConfig, stdout, stderr io.Writer) int {
	rep, err := shard.RunRebalance(ctx, model, cfg)
	if rep != nil {
		fmt.Fprintf(stdout, "shard-chaos: proto=%s shards=%d devices=%d periods=%d epsilon=%g decisions=%d moved=%d resumes=%d removed=%s added=%s mismatches=%d in %.2fs\n",
			rep.Proto, rep.Shards, rep.Devices, rep.Periods, cfg.Epsilon, rep.Decisions, rep.Moved, rep.Resumes, rep.Removed, rep.Added, rep.Mismatches, rep.DurationS)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pmload: shard invariant violated:", err)
		return 1
	}
	fmt.Fprintln(stdout, "shard-chaos: all invariants held")
	return 0
}
