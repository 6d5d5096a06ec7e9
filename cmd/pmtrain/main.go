// Command pmtrain trains the RL power-management policy on a scenario and
// saves the learned Q-tables to disk; it can also evaluate a saved policy,
// on the training scenario or any other.
//
// Training progress is tracked through an obs registry — per-episode
// reward (negated energy/QoS), mean exploration rate, and mean TD-error
// magnitude — and -metrics writes the final Prometheus exposition to a
// file, so a training run leaves the same kind of artifact a serving run
// exposes on /metrics.
//
// Both paths evaluate the policy as it is saved: a fresh frozen policy
// built from the trained snapshot, so -load of a file pmtrain wrote prints
// the evaluation line its training run printed.
//
// Usage:
//
//	pmtrain -scenario gaming -episodes 60 -o gaming.policy
//	pmtrain -load gaming.policy -scenario gaming        # evaluate
//	pmtrain -load gaming.policy -scenario video         # transfer test
//	pmtrain -episodes 60 -metrics train.prom            # keep the metrics
//
// Exit status is 0 on success, 1 when training, evaluation or a file
// fails, and 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rlpm/internal/core"
	"rlpm/internal/obs"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one pmtrain invocation's flags.
type options struct {
	scenario           string
	episodes           int
	duration, period   float64
	seed               uint64
	out, load, metrics string
}

// run executes one pmtrain invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.scenario, "scenario", "gaming", "workload scenario")
	fs.IntVar(&o.episodes, "episodes", 60, "training episodes")
	fs.Float64Var(&o.duration, "duration", 120, "seconds per episode / evaluation")
	fs.Float64Var(&o.period, "period", 0.05, "control period in seconds")
	fs.Uint64Var(&o.seed, "seed", 1, "scenario seed")
	fs.StringVar(&o.out, "o", "", "save the trained policy to this path")
	fs.StringVar(&o.load, "load", "", "load a saved policy instead of training")
	fs.StringVar(&o.metrics, "metrics", "", "write the final Prometheus metrics exposition to this path")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := o.train(stdout); err != nil {
		fmt.Fprintln(stderr, "pmtrain:", err)
		return 1
	}
	return 0
}

// trainGauges is the training-progress slice of the registry: last-value
// gauges updated at every episode boundary.
type trainGauges struct {
	reg          *obs.Registry
	episode      *obs.Gauge // 1-based index of the last finished episode
	reward       *obs.Gauge // per-episode reward: -energy/QoS
	energyPerQoS *obs.Gauge
	meanQoS      *obs.Gauge
	epsilon      *obs.Gauge // mean exploration rate across agents
	qDelta       *obs.Gauge // mean |TD error| across agents
}

func newTrainGauges() *trainGauges {
	reg := obs.NewRegistry()
	return &trainGauges{
		reg:          reg,
		episode:      reg.NewGauge("pmtrain_episode", "last finished training episode (1-based)"),
		reward:       reg.NewGauge("pmtrain_episode_reward", "episode reward (negated energy-per-QoS)"),
		energyPerQoS: reg.NewGauge("pmtrain_episode_energy_per_qos", "episode energy per delivered QoS (J)"),
		meanQoS:      reg.NewGauge("pmtrain_episode_mean_qos", "episode mean QoS"),
		epsilon:      reg.NewGauge("pmtrain_epsilon", "mean exploration rate across agents"),
		qDelta:       reg.NewGauge("pmtrain_q_delta", "mean absolute TD error across agents"),
	}
}

func (g *trainGauges) observe(ep int, r sim.Result, p *core.Policy) {
	g.episode.Set(float64(ep))
	g.reward.Set(-r.QoS.EnergyPerQoS)
	g.energyPerQoS.Set(r.QoS.EnergyPerQoS)
	g.meanQoS.Set(r.QoS.MeanQoS)
	g.epsilon.Set(p.MeanEpsilon())
	g.qDelta.Set(p.MeanTD())
}

func (o options) train(w io.Writer) error {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return err
	}
	spec, err := workload.ByName(o.scenario)
	if err != nil {
		return err
	}
	scen, err := workload.New(spec, chip.NumClusters(), o.seed)
	if err != nil {
		return err
	}
	cfg := sim.Config{PeriodS: o.period, DurationS: o.duration, Seed: o.seed}
	gauges := newTrainGauges()

	var snap core.Snapshot
	if o.load != "" {
		f, err := os.Open(o.load)
		if err != nil {
			return err
		}
		snap, err = core.ReadSnapshot(f)
		f.Close()
		if err == nil {
			err = fitsChip(snap, chip)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded policy from %s\n", o.load)
	} else {
		if o.episodes <= 0 {
			return fmt.Errorf("non-positive episode count %d", o.episodes)
		}
		policy, err := core.NewPolicy(core.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "training on %s for %d episodes of %.0fs...\n", o.scenario, o.episodes, o.duration)
		// Episode loop with the same per-episode seed derivation as
		// sim.RunEpisodes (core.Train's engine), so the trajectory is
		// byte-identical to a single Train call — the gauges ride along
		// without touching training.
		policy.SetLearning(true)
		var first, last float64
		for ep := 0; ep < o.episodes; ep++ {
			c := cfg
			c.Seed = cfg.Seed + uint64(ep)*0x9e3779b9
			r, err := sim.Run(chip, scen, policy, c)
			if err != nil {
				return err
			}
			if ep == 0 {
				first = r.QoS.EnergyPerQoS
			}
			last = r.QoS.EnergyPerQoS
			gauges.observe(ep+1, r, policy)
		}
		fmt.Fprintf(w, "energy/QoS: episode 1 = %.4f, episode %d = %.4f\n", first, o.episodes, last)
		if snap, err = policy.Snapshot(); err != nil {
			return err
		}
	}

	frozen, err := core.PolicyFromSnapshot(core.DefaultConfig(), snap)
	if err != nil {
		return err
	}
	res, err := sim.Run(chip, scen, frozen, cfg)
	if err != nil {
		return err
	}
	s := res.QoS
	fmt.Fprintf(w, "evaluation on %s: energy/QoS=%.4f meanQoS=%.4f violations=%.2f%% energy=%.1fJ\n",
		o.scenario, s.EnergyPerQoS, s.MeanQoS, 100*s.ViolationRate, s.TotalEnergyJ)

	if o.metrics != "" {
		if err := writeFile(o.metrics, gauges.reg.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics to %s\n", o.metrics)
	}
	if o.out != "" {
		if err := writeFile(o.out, snap.Encode); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved policy to %s\n", o.out)
	}
	return nil
}

// fitsChip checks that snap holds one table per cluster of chip, each with
// one action per OPP, so a policy built from it can drive chip.
func fitsChip(snap core.Snapshot, chip *soc.Chip) error {
	if len(snap.Tables) != chip.NumClusters() {
		return fmt.Errorf("policy has %d tables for %d clusters", len(snap.Tables), chip.NumClusters())
	}
	for i, t := range snap.Tables {
		if n := chip.Cluster(i).NumLevels(); len(t) == 0 || len(t[0]) != n {
			return fmt.Errorf("policy table %d does not have %d actions", i, n)
		}
	}
	return nil
}

// writeFile creates path and writes it with write, reporting a failed
// close as the failure it is.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
