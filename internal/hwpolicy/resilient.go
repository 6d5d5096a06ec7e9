package hwpolicy

import (
	"fmt"
	"time"

	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/fault"
	"rlpm/internal/fixed"
	"rlpm/internal/governor"
	"rlpm/internal/sim"
)

// Resilient runs the hardware policy behind a fault-tolerant driver and
// degrades gracefully when the hardware path misbehaves. It is the
// production-shaped counterpart of Governor, built for platforms where
// the interconnect, the Q BRAM, or the telemetry can fault:
//
//   - every decision transaction is watchdog-bounded (bus.Config's
//     WatchdogCycles) and retried with doubling backoff after a recovery
//     pulse, so a wedged accelerator can never stall the control loop;
//   - a health ladder demotes the decision source after DemoteAfter
//     consecutive faulty periods: hardware → the software RL policy (the
//     paper's SW implementation, kept hot in shadow) → the kernel's
//     ondemand governor as last resort;
//   - while demoted, the driver probes the hardware (a status read
//     through the same faulty bus) every period and re-promotes one rung
//     after PromoteAfter consecutive clean probes — a probation window;
//   - telemetry drops (detected read failures, flagged by the fault
//     filter) demote past the RL rungs when persistent, because both RL
//     implementations encode state from telemetry; ondemand on the
//     last-known-good sample is the conservative floor.
//
// With a nil injector the stack is byte-identical to the plain hardware
// governor (FromPolicy): same bus transactions, same decisions, same
// latencies — the differential test pins that.
type Resilient struct {
	rc  ResilientConfig
	inj *fault.Injector

	sw     *core.Policy // shadow software policy (rung 1)
	od     sim.Governor // ondemand fallback (rung 2)
	filter *fault.ObsFilter

	drivers    []*Driver
	prevDemand []float64
	tables     [][][]float64 // trained snapshot, re-uploaded on init/reset

	rung           int // 0 = hardware, 1 = software policy, 2 = ondemand
	consecHWFaults int
	consecTelem    int
	cleanProbes    int
	cleanTelem     int

	stats ResilientStats
}

var _ sim.Governor = (*Resilient)(nil)

// ResilientConfig parameterizes the fault-tolerant stack.
type ResilientConfig struct {
	// Core is the RL configuration (state encoding, reward).
	Core core.Config
	// Bus is the interconnect timing; set WatchdogCycles > 0 or wedged
	// devices will stall reads for their full busy time.
	Bus bus.Config
	// Banks is the accelerator BRAM banking.
	Banks int
	// Retries is how many times a failed decision transaction is
	// retried (after a recovery pulse and backoff) before the period
	// counts as faulty and the shadow policy's decision is used.
	Retries int
	// BackoffCycles is the bus-clock idle inserted before the first
	// retry; it doubles on each subsequent retry.
	BackoffCycles uint64
	// DemoteAfter is the number of consecutive faulty periods that
	// demotes the decision source one rung.
	DemoteAfter int
	// PromoteAfter is the probation window: consecutive clean periods
	// (probes at rung 1, telemetry at rung 2) before promoting one rung.
	PromoteAfter int
	// Scrub enables the accelerator's parity-protected Q BRAM: injected
	// bit flips are detected on fetch and the word is scrubbed to zero
	// instead of silently steering decisions.
	Scrub bool
}

// DefaultResilientConfig returns the deployment defaults: the paper's bus
// timing with a 4096-cycle (≈20 µs) watchdog — generous against latency
// spikes, tiny against a wedge — two retries with 64-cycle backoff,
// demotion after 3 consecutive faulty periods, and a 25-period probation.
func DefaultResilientConfig() ResilientConfig {
	busCfg := bus.DefaultConfig()
	busCfg.WatchdogCycles = 4096
	return ResilientConfig{
		Core:          core.DefaultConfig(),
		Bus:           busCfg,
		Banks:         DefaultParams().Banks,
		Retries:       2,
		BackoffCycles: 64,
		DemoteAfter:   3,
		PromoteAfter:  25,
	}
}

// Validate checks the configuration.
func (rc ResilientConfig) Validate() error {
	if err := rc.Core.Validate(); err != nil {
		return err
	}
	if err := rc.Bus.Validate(); err != nil {
		return err
	}
	if rc.Banks < 1 {
		return fmt.Errorf("hwpolicy: need at least one BRAM bank")
	}
	if rc.Retries < 0 {
		return fmt.Errorf("hwpolicy: negative retry count %d", rc.Retries)
	}
	if rc.DemoteAfter < 1 {
		return fmt.Errorf("hwpolicy: DemoteAfter must be at least 1, got %d", rc.DemoteAfter)
	}
	if rc.PromoteAfter < 1 {
		return fmt.Errorf("hwpolicy: PromoteAfter must be at least 1, got %d", rc.PromoteAfter)
	}
	return nil
}

// ResilientStats is the health ledger the faults experiment reports.
type ResilientStats struct {
	Decisions uint64 // periods decided
	PeriodsHW uint64 // periods decided by the accelerator
	PeriodsSW uint64 // periods decided by the software policy
	PeriodsOD uint64 // periods decided by ondemand

	HWFaults        uint64 // decision transactions that failed all retries
	Retries         uint64 // individual transaction retries
	TelemetryFaults uint64 // dropped telemetry samples detected
	Demotions       uint64 // rung demotions
	Promotions      uint64 // rung promotions
	UploadSkips     uint64 // Q-table words abandoned during bring-up

	TotalLat time.Duration // accumulated hardware transaction latency
	MaxLat   time.Duration
}

// NewResilient deploys a trained software policy p both onto the modeled
// accelerator (inference mode, like FromPolicy) and as its own hot shadow
// fallback. p must have been driven at least once (so its tables exist)
// and should be frozen with SetLearning(false); the resilient stack never
// mutates it. inj may be nil for a fault-free deployment — the stack then
// behaves exactly like the plain hardware governor.
func NewResilient(p *core.Policy, rc ResilientConfig, inj *fault.Injector) (*Resilient, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	snap, err := p.Snapshot()
	if err != nil {
		return nil, err
	}
	r := &Resilient{
		rc:     rc,
		inj:    inj,
		sw:     p,
		od:     governor.NewOndemand(),
		tables: snap.Tables,
	}
	if inj != nil {
		r.filter = fault.NewObsFilter(inj)
	}
	return r, nil
}

// Name implements sim.Governor.
func (*Resilient) Name() string { return "rl-policy-resilient" }

// Stats returns the health ledger.
func (r *Resilient) Stats() ResilientStats { return r.stats }

// Scrubs sums the parity scrubs across all cluster accelerators.
func (r *Resilient) Scrubs() uint64 {
	var n uint64
	for _, d := range r.drivers {
		n += d.Accel().Scrubs()
	}
	return n
}

// Drivers exposes the per-cluster drivers (nil before the first Decide).
func (r *Resilient) Drivers() []*Driver { return r.drivers }

func (r *Resilient) init(obs []sim.Observation) error {
	r.drivers = make([]*Driver, len(obs))
	r.prevDemand = make([]float64, len(obs))
	for i, o := range obs {
		p := Params{
			NumStates:  r.rc.Core.State.States(o.NumLevels),
			NumActions: o.NumLevels,
			Banks:      r.rc.Banks,
			LFSRSeed:   uint16(0xACE1 + 2*i + 1),
		}
		accel, err := New(p)
		if err != nil {
			return fmt.Errorf("hwpolicy: sizing accelerator for cluster %d: %w", i, err)
		}
		if r.rc.Scrub {
			accel.EnableParity(true)
		}
		var dev bus.Device = accel
		if r.inj != nil {
			cfg := r.inj.Config()
			if cfg.LFSRStuckMask != 0 {
				accel.SetLFSRStuck(cfg.LFSRStuckMask, cfg.LFSRStuckVal)
			}
			dev = fault.NewDevice(accel, accel, r.inj)
		}
		d, err := NewDriverDevice(r.rc.Bus, accel, dev)
		if err != nil {
			return fmt.Errorf("hwpolicy: wiring driver for cluster %d: %w", i, err)
		}
		// Bring-up runs over the same (possibly faulty) wires, so retry
		// at single-transaction granularity — posted register writes are
		// idempotent. Configuration registers are load-bearing: if one
		// still fails after the retry budget, bring-up fails and the
		// stack starts demoted. A Q-table word that still fails is
		// skipped instead: the cell stays at its reset value and costs a
		// sliver of decision quality, not the whole accelerator.
		cfgWrites := [...][2]uint32{
			{RegAlpha, uint32(fixed.FromFloat(r.rc.Core.Alpha).Raw())},
			{RegGamma, uint32(fixed.FromFloat(r.rc.Core.Gamma).Raw())},
			{RegEpsilon, 0},
			{RegLearn, 0},
		}
		for _, wv := range cfgWrites {
			reg, val := wv[0], wv[1]
			if err := r.retrying(d, func() error { return d.Bus().Write(reg, val) }); err != nil {
				return fmt.Errorf("hwpolicy: configuring cluster %d: %w", i, err)
			}
		}
		if i < len(r.tables) {
			tab := r.tables[i]
			if len(tab) != p.NumStates {
				return fmt.Errorf("hwpolicy: cluster %d snapshot has %d states, accelerator sized for %d: %w",
					i, len(tab), p.NumStates, ErrOutOfRange)
			}
			for s, rowVals := range tab {
				if len(rowVals) != p.NumActions {
					return fmt.Errorf("hwpolicy: cluster %d snapshot row %d has %d actions, want %d: %w",
						i, s, len(rowVals), p.NumActions, ErrOutOfRange)
				}
				for x, v := range rowVals {
					idx := uint32(s*p.NumActions + x)
					raw := uint32(fixed.FromFloat(v).Raw())
					err := r.retrying(d, func() error {
						if err := d.Bus().Write(RegQAddr, idx); err != nil {
							return err
						}
						return d.Bus().Write(RegQData, raw)
					})
					if err != nil {
						r.stats.UploadSkips++
					}
				}
			}
		}
		r.drivers[i] = d
	}
	return nil
}

// retrying runs op with the driver's recovery/backoff discipline.
func (r *Resilient) retrying(d *Driver, op func() error) error {
	var err error
	for attempt := 0; attempt <= r.rc.Retries; attempt++ {
		if attempt > 0 {
			r.stats.Retries++
			d.Bus().Recover()
			d.Bus().Idle(r.rc.BackoffCycles << uint(attempt-1))
		}
		if err = op(); err == nil {
			return nil
		}
	}
	d.Bus().Recover()
	return err
}

// stepHW runs one bounded decision transaction for cluster i. ok reports
// whether any attempt succeeded.
func (r *Resilient) stepHW(i, state int, reward float64) (action int, ok bool) {
	d := r.drivers[i]
	err := r.retrying(d, func() error {
		act, lat, e := d.Step(state, reward)
		if e != nil {
			return e
		}
		action = act
		r.stats.TotalLat += lat
		if lat > r.stats.MaxLat {
			r.stats.MaxLat = lat
		}
		return nil
	})
	if err != nil {
		r.stats.HWFaults++
		return 0, false
	}
	return action, true
}

// probeHW checks hardware health from a demoted rung: one status read per
// cluster through the faulty bus. All must succeed for a clean probe.
func (r *Resilient) probeHW() bool {
	if len(r.drivers) == 0 {
		return false // bring-up failed; there is no hardware to go back to
	}
	ok := true
	for _, d := range r.drivers {
		if _, err := d.Bus().Read(RegStatus); err != nil {
			d.Bus().Recover()
			ok = false
		}
	}
	return ok
}

// Decide implements sim.Governor. It never panics and never blocks
// unboundedly: every hardware interaction is watchdog-bounded and capped
// at Retries attempts, and a failed period falls through to the shadow
// policies, which are pure software.
func (r *Resilient) Decide(obs []sim.Observation) []int {
	if r.drivers == nil {
		if r.init(obs) != nil {
			// Hardware bring-up failed outright (e.g. the injector killed
			// every upload attempt): run demoted from the start.
			r.drivers = make([]*Driver, 0) // non-nil: don't re-init every period
			r.rung = 1
			r.stats.Demotions++
			r.stats.Decisions++
			r.stats.PeriodsSW++
			return r.sw.Decide(obs)
		}
	}
	r.stats.Decisions++

	// Telemetry path: filter (when injecting) and count detected drops.
	fobs := obs
	droppedPeriod := false
	if r.filter != nil {
		var flags []fault.Flags
		fobs, flags = r.filter.Apply(obs)
		for _, fl := range flags {
			if fl.Dropped {
				r.stats.TelemetryFaults++
				droppedPeriod = true
			}
		}
	}

	// Shadow decisions every period: the software policy and ondemand
	// stay hot so a demotion mid-run continues a coherent control law.
	swAct := r.sw.Decide(fobs)
	odAct := r.od.Decide(fobs)

	var out []int
	switch r.rung {
	case 0:
		out = make([]int, len(fobs))
		periodFault := false
		for i, o := range fobs {
			state := r.rc.Core.EncodeState(o, r.prevDemand[i])
			reward := r.rc.Core.Reward(o)
			if len(r.drivers) != len(fobs) {
				periodFault = true
				out[i] = swAct[i]
				continue
			}
			act, ok := r.stepHW(i, state, reward)
			if ok && act >= 0 && act < o.NumLevels {
				out[i] = act
			} else {
				// Failed transaction or corrupted action read: this
				// period rides on the shadow policy for this cluster.
				periodFault = true
				out[i] = swAct[i]
			}
		}
		r.stats.PeriodsHW++
		if periodFault {
			r.consecHWFaults++
			if r.consecHWFaults >= r.rc.DemoteAfter {
				r.demote()
			}
		} else {
			r.consecHWFaults = 0
		}
	case 1:
		out = swAct
		r.stats.PeriodsSW++
		if r.probeHW() {
			r.cleanProbes++
			if r.cleanProbes >= r.rc.PromoteAfter {
				r.promote()
			}
		} else {
			r.cleanProbes = 0
		}
	default:
		out = odAct
		r.stats.PeriodsOD++
		if !droppedPeriod {
			r.cleanTelem++
			if r.cleanTelem >= r.rc.PromoteAfter {
				r.promote()
			}
		} else {
			r.cleanTelem = 0
		}
	}

	// Persistent telemetry starvation demotes regardless of the current
	// RL rung: both RL implementations encode state from telemetry, so
	// flying them on guesses is worse than ondemand's one-threshold rule
	// on the last good sample.
	if r.rung < 2 {
		if droppedPeriod {
			r.consecTelem++
			if r.consecTelem >= r.rc.DemoteAfter {
				r.demote()
			}
		} else {
			r.consecTelem = 0
		}
	}

	for i, o := range fobs {
		r.prevDemand[i] = o.DemandRatio
	}
	return out
}

func (r *Resilient) demote() {
	if r.rung >= 2 {
		return
	}
	r.rung++
	r.stats.Demotions++
	r.consecHWFaults, r.consecTelem = 0, 0
	r.cleanProbes, r.cleanTelem = 0, 0
}

func (r *Resilient) promote() {
	if r.rung <= 0 {
		return
	}
	r.rung--
	r.stats.Promotions++
	r.consecHWFaults, r.consecTelem = 0, 0
	r.cleanProbes, r.cleanTelem = 0, 0
}

// Reset implements sim.Governor: the hardware stack re-initializes from
// the trained snapshot on the next Decide and the health ladder returns
// to the hardware rung. The shadow software policy is a frozen trained
// artifact and is left untouched (resetting it would erase the training,
// not return to "initial state").
func (r *Resilient) Reset() {
	r.drivers = nil
	r.prevDemand = nil
	r.rung = 0
	r.consecHWFaults, r.consecTelem = 0, 0
	r.cleanProbes, r.cleanTelem = 0, 0
	r.stats = ResilientStats{}
	if r.filter != nil {
		r.filter.Reset()
	}
	r.od.Reset()
}
