// Package soc models the multiprocessor system-on-chip that the power
// management policy controls.
//
// The model is the standard architecture-level abstraction used in DVFS
// studies: per-cluster operating performance points (OPPs — frequency plus
// the minimum stable voltage for it), dynamic power P = Ceff·V²·f·u, a
// temperature-dependent leakage term, and a first-order RC thermal model
// with a throttling ceiling. The paper evaluated on a physical big.LITTLE
// mobile MPSoC; this package is the simulated substitute (see DESIGN.md §2)
// and exposes exactly the observation/actuation surface a cpufreq governor
// sees: per-cluster utilization in, OPP index out.
package soc

import (
	"fmt"
	"math"
)

// OPP is one operating performance point: a frequency and the voltage the
// cluster must run at to sustain it.
type OPP struct {
	FreqHz float64 // core clock in Hz
	VoltV  float64 // supply voltage in volts
}

// ClusterSpec is the static description of one CPU cluster.
type ClusterSpec struct {
	Name     string
	NumCores int
	// OPPs must be sorted by ascending frequency with strictly positive
	// frequency and voltage.
	OPPs []OPP
	// CeffF is the effective switched capacitance per core in farads;
	// dynamic power is CeffF · V² · f · (utilized cores).
	CeffF float64
	// LeakA0 is the per-core leakage current at ThermalSpec.AmbientC, in
	// amperes. Leakage doubles every LeakDoubleC degrees.
	LeakA0      float64
	LeakDoubleC float64
	// SwitchLatencyS is the stall a DVFS transition costs (PLL relock +
	// regulator ramp); during it the cluster executes nothing. Zero means
	// free transitions.
	SwitchLatencyS float64
	// SwitchEnergyJ is the energy overhead of one DVFS transition.
	SwitchEnergyJ float64
	// IPC is the cluster's relative work per cycle (instructions per
	// cycle normalized across clusters): an out-of-order big core
	// retires more work per cycle than an in-order LITTLE core. Demand
	// expressed in one cluster's cycles converts to another's by the IPC
	// ratio (the scheduler does this when it migrates tasks).
	IPC float64
}

// ThermalSpec is the first-order RC thermal model for one cluster.
type ThermalSpec struct {
	AmbientC   float64 // ambient/skin temperature, °C
	RthCPerW   float64 // junction-to-ambient thermal resistance, °C/W
	CthJPerC   float64 // thermal capacitance, J/°C
	ThrottleC  float64 // junction temperature that engages throttling
	ThrottleLv int     // highest OPP index allowed while throttled
}

// Validate checks the spec for the invariants the simulator relies on.
func (s ClusterSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc: cluster has no name")
	}
	if s.NumCores <= 0 {
		return fmt.Errorf("soc: cluster %s has %d cores", s.Name, s.NumCores)
	}
	if len(s.OPPs) == 0 {
		return fmt.Errorf("soc: cluster %s has no OPPs", s.Name)
	}
	prev := 0.0
	for i, o := range s.OPPs {
		if o.FreqHz <= 0 || o.VoltV <= 0 {
			return fmt.Errorf("soc: cluster %s OPP %d non-positive (%v Hz, %v V)", s.Name, i, o.FreqHz, o.VoltV)
		}
		if o.FreqHz <= prev {
			return fmt.Errorf("soc: cluster %s OPPs not ascending at index %d", s.Name, i)
		}
		prev = o.FreqHz
	}
	if s.CeffF <= 0 {
		return fmt.Errorf("soc: cluster %s Ceff must be positive", s.Name)
	}
	if s.LeakA0 < 0 || s.LeakDoubleC <= 0 {
		return fmt.Errorf("soc: cluster %s bad leakage parameters", s.Name)
	}
	if s.SwitchLatencyS < 0 || s.SwitchEnergyJ < 0 {
		return fmt.Errorf("soc: cluster %s negative DVFS switch cost", s.Name)
	}
	if s.IPC <= 0 {
		return fmt.Errorf("soc: cluster %s IPC must be positive, got %v", s.Name, s.IPC)
	}
	return nil
}

// Demand is the work presented to a cluster for one control period.
type Demand struct {
	// Cycles is the total cycle demand across all runnable threads.
	Cycles float64
	// Parallelism is the number of concurrently runnable threads; it caps
	// how many cores can contribute capacity. Zero means idle.
	Parallelism int
}

// StepResult reports what happened during one control period.
type StepResult struct {
	CompletedCycles float64 // cycles actually executed
	CapacityCycles  float64 // cycles the runnable threads could have executed
	// Utilization is completed cycles over the capacity of the cores the
	// workload could actually use (min(parallelism, cores)), i.e. the
	// busiest-core utilization a cpufreq governor samples. 1.0 means the
	// runnable threads are fully compute-bound at this OPP. 0 when idle.
	Utilization   float64
	DynamicPowerW float64 // average dynamic power over the period
	LeakPowerW    float64 // average leakage power over the period
	EnergyJ       float64 // total energy over the period (incl. switch cost)
	TempC         float64 // junction temperature at the end of the period
	Throttled     bool    // true if the thermal governor capped the level
	Level         int     // OPP level in effect during the period
	Switched      bool    // true if this period began with a DVFS transition
}

// PowerW returns the average dynamic-plus-leakage power; DVFS transition
// overhead is accounted in EnergyJ but not here.
func (r StepResult) PowerW() float64 { return r.DynamicPowerW + r.LeakPowerW }

// Cluster is the dynamic state of one cluster.
type Cluster struct {
	spec    ClusterSpec
	thermal ThermalSpec
	level   int     // requested OPP index
	tempC   float64 // junction temperature

	prevEffLevel int    // effective level of the previous period
	hasPrev      bool   // false until the first Step
	switches     uint64 // DVFS transitions performed

	// Invariants of the spec, hoisted out of the per-period Step. The
	// multiplication order inside each coefficient matches the original
	// inline expressions exactly, so results stay bit-identical.
	dynCoefW []float64 // per OPP: CeffF·V·V·f — dynamic power per busy core
	leakVA   []float64 // per OPP: V·LeakA0 — leakage volt-amps per core
	coresF   float64   // float64(NumCores)
	tauS     float64   // thermal time constant Rth·Cth

	// One-entry decay cache: dt is fixed within a run, so the thermal
	// factor exp(-dt/tau) is recomputed only when dt changes.
	cachedDtS   float64
	cachedDecay float64
}

// NewCluster builds a cluster at the lowest OPP and ambient temperature.
func NewCluster(spec ClusterSpec, thermal ThermalSpec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if thermal.RthCPerW <= 0 || thermal.CthJPerC <= 0 {
		return nil, fmt.Errorf("soc: cluster %s has non-positive thermal RC", spec.Name)
	}
	if thermal.ThrottleLv < 0 || thermal.ThrottleLv >= len(spec.OPPs) {
		return nil, fmt.Errorf("soc: cluster %s throttle level %d out of range", spec.Name, thermal.ThrottleLv)
	}
	c := &Cluster{spec: spec, thermal: thermal, tempC: thermal.AmbientC}
	c.dynCoefW = make([]float64, len(spec.OPPs))
	c.leakVA = make([]float64, len(spec.OPPs))
	for i, o := range spec.OPPs {
		c.dynCoefW[i] = spec.CeffF * o.VoltV * o.VoltV * o.FreqHz
		c.leakVA[i] = o.VoltV * spec.LeakA0
	}
	c.coresF = float64(spec.NumCores)
	c.tauS = thermal.RthCPerW * thermal.CthJPerC
	return c, nil
}

// Spec returns the static spec.
func (c *Cluster) Spec() ClusterSpec { return c.spec }

// NumLevels returns the number of OPPs.
func (c *Cluster) NumLevels() int { return len(c.spec.OPPs) }

// OPPAt returns OPP i.
func (c *Cluster) OPPAt(i int) OPP { return c.spec.OPPs[i] }

// Level returns the requested OPP index (before thermal capping).
func (c *Cluster) Level() int { return c.level }

// TempC returns the current junction temperature.
func (c *Cluster) TempC() float64 { return c.tempC }

// SetLevel requests OPP index lvl, clamping into the valid range. It
// returns the level actually stored. Clamping rather than erroring matches
// cpufreq semantics where out-of-range requests clip to policy limits.
func (c *Cluster) SetLevel(lvl int) int {
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(c.spec.OPPs) {
		lvl = len(c.spec.OPPs) - 1
	}
	c.level = lvl
	return lvl
}

// Switches returns how many DVFS transitions the cluster has performed.
func (c *Cluster) Switches() uint64 { return c.switches }

// Reset restores ambient temperature and the lowest OPP.
func (c *Cluster) Reset() {
	c.level = 0
	c.tempC = c.thermal.AmbientC
	c.prevEffLevel = 0
	c.hasPrev = false
	c.switches = 0
}

// effectiveLevel applies the thermal cap.
func (c *Cluster) effectiveLevel() (int, bool) {
	if c.tempC >= c.thermal.ThrottleC && c.level > c.thermal.ThrottleLv {
		return c.thermal.ThrottleLv, true
	}
	return c.level, false
}

// leakPowerW returns per-cluster leakage at OPP level lvl and temperature t.
func (c *Cluster) leakPowerW(lvl int, t float64) float64 {
	scale := math.Exp2((t - c.thermal.AmbientC) / c.spec.LeakDoubleC)
	return c.leakVA[lvl] * scale * c.coresF
}

// decayFactor returns exp(-dt/tau), cached for the run's fixed dt.
func (c *Cluster) decayFactor(dt float64) float64 {
	if dt != c.cachedDtS {
		c.cachedDtS = dt
		c.cachedDecay = math.Exp(-dt / c.tauS)
	}
	return c.cachedDecay
}

// Step advances the cluster by dt seconds under demand d and returns what
// happened. dt must be positive; demand fields must be non-negative.
func (c *Cluster) Step(d Demand, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("soc: non-positive dt %v", dt)
	}
	if d.Cycles < 0 || d.Parallelism < 0 {
		return StepResult{}, fmt.Errorf("soc: negative demand %+v", d)
	}
	lvl, throttled := c.effectiveLevel()
	opp := c.spec.OPPs[lvl]

	// DVFS transition: the cluster stalls for the switch latency and pays
	// the regulator-ramp energy.
	switched := c.hasPrev && lvl != c.prevEffLevel
	switchEnergy := 0.0
	effectiveDt := dt
	if switched {
		c.switches++
		switchEnergy = c.spec.SwitchEnergyJ
		stall := c.spec.SwitchLatencyS
		if stall > dt {
			stall = dt
		}
		effectiveDt = dt - stall
	}
	c.prevEffLevel, c.hasPrev = lvl, true

	usableCores := d.Parallelism
	if usableCores > c.spec.NumCores {
		usableCores = c.spec.NumCores
	}
	capacity := opp.FreqHz * effectiveDt * float64(usableCores)
	completed := d.Cycles
	if completed > capacity {
		completed = capacity
	}
	util := 0.0
	if capacity > 0 {
		util = completed / capacity
	}

	// Dynamic power: Ceff·V²·f scaled by the average number of busy cores
	// (completed cycles / (f·dt) core-seconds of work).
	busyCores := 0.0
	if opp.FreqHz > 0 {
		busyCores = completed / (opp.FreqHz * dt)
	}
	dyn := c.dynCoefW[lvl] * busyCores
	leak := c.leakPowerW(lvl, c.tempC)
	power := dyn + leak + switchEnergy/dt

	// First-order RC: dT/dt = (P·Rth + Tamb − T) / (Rth·Cth), integrated
	// exactly over the period for the constant-power step.
	tInf := c.thermal.AmbientC + power*c.thermal.RthCPerW
	c.tempC = tInf + (c.tempC-tInf)*c.decayFactor(dt)

	return StepResult{
		CompletedCycles: completed,
		CapacityCycles:  capacity,
		Utilization:     util,
		DynamicPowerW:   dyn,
		LeakPowerW:      leak,
		EnergyJ:         power * dt,
		TempC:           c.tempC,
		Throttled:       throttled,
		Level:           lvl,
		Switched:        switched,
	}, nil
}

// Chip bundles the clusters of an MPSoC plus an uncore (memory controller,
// interconnect, display pipeline) power floor that every scenario pays.
type Chip struct {
	clusters     []*Cluster
	uncoreIdleW  float64
	uncoreBusyW  float64 // additional uncore power at full CPU activity
	totalEnergyJ float64
	totalTimeS   float64
}

// ChipSpec describes a chip.
type ChipSpec struct {
	Clusters    []ClusterSpec
	Thermal     ThermalSpec
	UncoreIdleW float64 // constant platform floor
	UncoreBusyW float64 // extra uncore power scaled by mean CPU utilization
}

// NewChip builds a chip with one Cluster per spec, all sharing the thermal
// spec (each cluster integrates its own RC instance).
func NewChip(spec ChipSpec) (*Chip, error) {
	if len(spec.Clusters) == 0 {
		return nil, fmt.Errorf("soc: chip needs at least one cluster")
	}
	if spec.UncoreIdleW < 0 || spec.UncoreBusyW < 0 {
		return nil, fmt.Errorf("soc: negative uncore power")
	}
	ch := &Chip{uncoreIdleW: spec.UncoreIdleW, uncoreBusyW: spec.UncoreBusyW}
	seen := map[string]bool{}
	for _, cs := range spec.Clusters {
		if seen[cs.Name] {
			return nil, fmt.Errorf("soc: duplicate cluster name %q", cs.Name)
		}
		seen[cs.Name] = true
		cl, err := NewCluster(cs, spec.Thermal)
		if err != nil {
			return nil, err
		}
		ch.clusters = append(ch.clusters, cl)
	}
	return ch, nil
}

// NumClusters returns the cluster count.
func (ch *Chip) NumClusters() int { return len(ch.clusters) }

// Cluster returns cluster i.
func (ch *Chip) Cluster(i int) *Cluster { return ch.clusters[i] }

// ChipStep aggregates a whole-chip step.
type ChipStep struct {
	Clusters     []StepResult
	UncorePowerW float64
	EnergyJ      float64 // clusters + uncore
}

// Step advances every cluster by dt under the given per-cluster demands.
// It allocates a fresh Clusters slice per call; hot loops should hold a
// ChipStep and use StepInto instead.
func (ch *Chip) Step(demands []Demand, dt float64) (ChipStep, error) {
	var out ChipStep
	if err := ch.StepInto(&out, demands, dt); err != nil {
		return ChipStep{}, err
	}
	return out, nil
}

// StepInto is Step writing into a caller-owned result: dst.Clusters is
// reused when its capacity suffices, so a steady-state control loop that
// keeps one ChipStep across periods performs no allocation per step. On
// error dst is left unchanged apart from a possible Clusters resize.
func (ch *Chip) StepInto(dst *ChipStep, demands []Demand, dt float64) error {
	if len(demands) != len(ch.clusters) {
		return fmt.Errorf("soc: %d demands for %d clusters", len(demands), len(ch.clusters))
	}
	if cap(dst.Clusters) >= len(ch.clusters) {
		dst.Clusters = dst.Clusters[:len(ch.clusters)]
	} else {
		dst.Clusters = make([]StepResult, len(ch.clusters))
	}
	var utilSum float64
	var clusterEnergy float64
	for i, cl := range ch.clusters {
		r, err := cl.Step(demands[i], dt)
		if err != nil {
			return err
		}
		dst.Clusters[i] = r
		utilSum += r.Utilization
		clusterEnergy += r.EnergyJ
	}
	meanUtil := utilSum / float64(len(ch.clusters))
	dst.UncorePowerW = ch.uncoreIdleW + ch.uncoreBusyW*meanUtil
	dst.EnergyJ = clusterEnergy + dst.UncorePowerW*dt
	ch.totalEnergyJ += dst.EnergyJ
	ch.totalTimeS += dt
	return nil
}

// TotalEnergyJ returns the accumulated energy since construction/Reset.
func (ch *Chip) TotalEnergyJ() float64 { return ch.totalEnergyJ }

// Reset restores all clusters and clears accumulators.
func (ch *Chip) Reset() {
	for _, cl := range ch.clusters {
		cl.Reset()
	}
	ch.totalEnergyJ = 0
	ch.totalTimeS = 0
}
