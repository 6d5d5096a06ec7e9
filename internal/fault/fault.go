// Package fault is the deterministic fault-injection layer for the
// hardware policy path.
//
// The paper's decision-latency and energy claims assume the CPU↔FPGA
// interconnect, the Q-table BRAM, and the utilization/temperature
// telemetry never misbehave. This package makes each of those assumptions
// breakable on demand, so the rest of the system can be hardened against
// — and measured under — the faults a real platform exhibits:
//
//   - interconnect faults (Device): transient read/write error returns,
//     bit flips on register read data, latency spikes, and stalled-busy
//     devices that hang past the driver's watchdog;
//   - accelerator faults (Device + Corruptor): single-event upsets in the
//     Q BRAM and stuck-at bits on the exploration LFSR;
//   - telemetry faults (ObsFilter): stale, dropped, or noisy
//     utilization/temperature observations on the simulator's path into
//     every governor.
//
// Everything is seed-driven through internal/rng streams: one stream per
// injection site, so a run is bit-reproducible from its seed, and the
// experiment engine's serial-vs-parallel byte-identity guarantee extends
// to fault experiments. A zero rate consumes no randomness at its site,
// so an all-zero Config is byte-transparent: wrapped and unwrapped stacks
// produce identical traces (the differential tests pin this).
package fault

import (
	"errors"
	"fmt"

	"rlpm/internal/rng"
)

// ErrInjected is the sentinel wrapped by every transient error the
// injector fabricates, so tests and drivers can tell injected faults from
// genuine protocol errors with errors.Is.
var ErrInjected = errors.New("fault: injected transient error")

// Config sets the per-site fault rates. All rates are probabilities in
// [0,1]; a zero rate disables the site entirely (no RNG draws, no
// perturbation). The zero value injects nothing.
type Config struct {
	// Seed drives all injection streams. Derive it per evaluation cell
	// (e.g. with engine.CellSeed) so parallel cells stay independent.
	Seed uint64

	// ReadErrorRate is the per-read probability of a transient bus error
	// return (the device NACKs or the interconnect drops the response).
	ReadErrorRate float64
	// WriteErrorRate is the per-write probability of a transient error.
	WriteErrorRate float64
	// ReadFlipRate is the per-read probability of a single-bit flip on
	// the returned register data (crosstalk/marginal timing on the bus).
	ReadFlipRate float64
	// StallRate is the per-decision probability of a latency spike:
	// StallCycles extra device-clock cycles before results are readable.
	StallRate float64
	// StallCycles is the magnitude of an injected latency spike
	// (device-clock cycles). Defaults to 512 when a stall fires with a
	// zero value.
	StallCycles uint64
	// TimeoutRate is the per-decision probability the device wedges:
	// it reports TimeoutCycles of busy time, which is meant to exceed
	// any sane watchdog so the driver's recovery path runs.
	TimeoutRate float64
	// TimeoutCycles is the busy time of a wedged device (device-clock
	// cycles). Defaults to 1<<30 (≈10 s at 100 MHz) when a timeout
	// fires with a zero value.
	TimeoutCycles uint64

	// QFlipRate is the per-decision probability of a single-event upset
	// flipping one uniformly chosen bit of one uniformly chosen Q-table
	// word (requires a Corruptor-capable device).
	QFlipRate float64
	// LFSRStuckMask forces the masked exploration-LFSR bits to the
	// corresponding LFSRStuckVal bits after every shift (stuck-at
	// fault). Applied once at wiring time, not probabilistic.
	LFSRStuckMask uint16
	// LFSRStuckVal holds the stuck values for LFSRStuckMask bits.
	LFSRStuckVal uint16

	// ObsStaleRate is the per-cluster-per-period probability the
	// telemetry sample is stale: the previous period's values are
	// delivered again (silent — a real stale register read succeeds).
	ObsStaleRate float64
	// ObsDropRate is the per-cluster-per-period probability the
	// telemetry read fails outright. The filter delivers the last good
	// sample and flags the drop, so health monitors can react.
	ObsDropRate float64
	// ObsNoiseCV adds multiplicative log-normal noise with this
	// coefficient of variation to utilization and demand telemetry.
	ObsNoiseCV float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"ReadErrorRate", c.ReadErrorRate},
		{"WriteErrorRate", c.WriteErrorRate},
		{"ReadFlipRate", c.ReadFlipRate},
		{"StallRate", c.StallRate},
		{"TimeoutRate", c.TimeoutRate},
		{"QFlipRate", c.QFlipRate},
		{"ObsStaleRate", c.ObsStaleRate},
		{"ObsDropRate", c.ObsDropRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v out of [0,1]", r.name, r.v)
		}
	}
	if c.ObsNoiseCV < 0 {
		return fmt.Errorf("fault: negative ObsNoiseCV %v", c.ObsNoiseCV)
	}
	return nil
}

// Stats counts what the injector actually did — the ground truth the
// faults experiment reports next to the system's reaction.
type Stats struct {
	ReadErrors  uint64 // transient read errors returned
	WriteErrors uint64 // transient write errors returned
	ReadFlips   uint64 // read-data bit flips delivered
	Stalls      uint64 // latency spikes injected
	Timeouts    uint64 // wedged-device episodes injected
	QFlips      uint64 // Q-table SEUs injected
	StaleObs    uint64 // stale telemetry samples delivered
	DroppedObs  uint64 // failed telemetry reads
	NoisyObs    uint64 // noise-perturbed telemetry samples
}

// Total sums every injected fault.
func (s Stats) Total() uint64 {
	return s.ReadErrors + s.WriteErrors + s.ReadFlips + s.Stalls +
		s.Timeouts + s.QFlips + s.StaleObs + s.DroppedObs
}

// Injector owns the fault streams and counters for one system instance
// (one evaluation cell). It is not safe for concurrent use — like every
// governor/driver stack in the repo, one instance belongs to one cell.
type Injector struct {
	cfg   Config
	busR  *rng.Rand // interconnect site
	memR  *rng.Rand // BRAM/SEU site
	obsR  *rng.Rand // telemetry site
	stats Stats
}

// Stream IDs keep the three sites statistically independent for one seed.
const (
	streamBus = 0xFA111B05
	streamMem = 0xFA111BEA
	streamObs = 0xFA1110B5
)

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StallCycles == 0 {
		cfg.StallCycles = 512
	}
	if cfg.TimeoutCycles == 0 {
		cfg.TimeoutCycles = 1 << 30
	}
	return &Injector{
		cfg:  cfg,
		busR: rng.NewStream(cfg.Seed, streamBus),
		memR: rng.NewStream(cfg.Seed, streamMem),
		obsR: rng.NewStream(cfg.Seed, streamObs),
	}, nil
}

// Config returns the injector's configuration (with defaults resolved).
func (in *Injector) Config() Config { return in.cfg }

// Stats returns the injection counters so far.
func (in *Injector) Stats() Stats { return in.stats }

// hit draws a Bernoulli decision from stream r — but only when rate > 0,
// so disabled sites consume no randomness and perturb nothing.
func hit(r *rng.Rand, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return r.Float64() < rate
}
