// Package sim runs the closed control loop: scenario → chip → governor.
//
// Each control period the scenario presents per-cluster cycle demands, the
// chip executes them at the current OPPs, the QoS tracker scores the
// service ratio, and the governor observes the outcome and sets the OPPs
// for the next period — exactly the cadence of a cpufreq governor's
// periodic callback. Both the six baseline governors and the RL policy
// implement the same Governor interface, so the comparison in Table 1 is
// apples to apples.
package sim

import (
	"fmt"
	"math"
	"strconv"

	"rlpm/internal/qos"
	"rlpm/internal/rng"
	"rlpm/internal/soc"
	"rlpm/internal/trace"
	"rlpm/internal/workload"
)

// Observation is what a governor sees about one cluster after a period.
type Observation struct {
	// Utilization is the busiest-core utilization: completed cycles over
	// the capacity of the cores the workload could use, in [0,1].
	Utilization float64
	// DemandRatio is demanded cycles over the capacity of the cores the
	// workload could use at the period's frequency — the speedup factor
	// the cluster would have needed to serve the demand fully. May exceed
	// 1 when oversubscribed; 0 when idle.
	DemandRatio float64
	// QoS is the chip-wide service ratio of the period, in [0,1].
	QoS float64
	// ClusterQoS is this cluster's own service ratio (1 when it had no
	// demand) — the per-agent credit-assignment signal. Before the first
	// period it is 0, not 1; Device.Obs says why.
	ClusterQoS float64
	// Critical reports whether the period carried a deadline.
	Critical bool
	// Level is the OPP index in effect during the period.
	Level int
	// NumLevels is the size of the cluster's OPP table.
	NumLevels int
	// FreqsHz is the cluster's OPP frequency table (ascending, shared
	// slice — governors must not mutate it).
	FreqsHz []float64
	// EnergyJ is the whole-chip energy of the period (clusters + uncore).
	EnergyJ float64
	// ClusterEnergyJ is this cluster's energy plus an equal share of the
	// uncore energy — the attribution the policy's reward uses so each
	// cluster's agent sees the consequences of its own level choice.
	ClusterEnergyJ float64
	// TempC is the cluster junction temperature.
	TempC float64
	// Throttled reports whether the thermal governor capped the level.
	Throttled bool
	// PeriodS is the control period length.
	PeriodS float64
}

// Governor decides the next OPP level for every cluster.
//
// Decide receives one Observation per cluster describing the period that
// just ended and returns the OPP level to use for the next period for each
// cluster. Implementations may learn online inside Decide.
type Governor interface {
	Name() string
	Decide(obs []Observation) []int
	// Reset returns the governor to its initial state (clears learned
	// state for learning governors).
	Reset()
}

// InPlaceGovernor is the optional allocation-free decision path. DecideInto
// writes one level per observation into dst — whose length equals len(obs)
// — and returns the slice it filled (dst, unless the implementation had to
// grow it). Implementations must produce exactly the levels Decide would,
// and must not retain dst. Run uses this path when available, so a
// steady-state simulation step performs no per-period allocation; external
// governors that only implement Decide keep working through the fallback.
type InPlaceGovernor interface {
	Governor
	DecideInto(dst []int, obs []Observation) []int
}

// DecideInto invokes gov's allocation-free path when it implements
// InPlaceGovernor and falls back to Decide otherwise. Wrapper governors
// (fault filters, instrumentation shims) use it to pass the fast path
// through to their inner governor.
func DecideInto(gov Governor, dst []int, obs []Observation) []int {
	if ip, ok := gov.(InPlaceGovernor); ok {
		return ip.DecideInto(dst, obs)
	}
	return gov.Decide(obs)
}

// FitLevels returns dst resized to n levels, reallocating only when the
// capacity is short — the shared first line of every DecideInto.
func FitLevels(dst []int, n int) []int {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int, n)
}

// Config parameterizes a run.
type Config struct {
	PeriodS   float64 // control period, e.g. 0.05
	DurationS float64 // total simulated time
	Seed      uint64  // scenario seed
	// ViolationThreshold overrides qos.DefaultViolationThreshold when > 0.
	ViolationThreshold float64
	// ObsNoiseCV adds multiplicative log-normal noise (with this
	// coefficient of variation) to the Utilization and DemandRatio every
	// governor observes — modeling the sampling noise of real cpufreq
	// accounting, which sees scheduler tick quantization, idle-state
	// bookkeeping skew, and aliasing. Zero (the default) disables it.
	// Ground-truth energy/QoS accounting is never perturbed.
	ObsNoiseCV float64
	// Recorder, when non-nil, receives one row per period with columns
	// time plus, per cluster i: level_i, util_i; plus power, qos.
	Recorder *trace.Recorder
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.PeriodS <= 0 {
		return fmt.Errorf("sim: non-positive period %v", c.PeriodS)
	}
	if c.DurationS < c.PeriodS {
		return fmt.Errorf("sim: duration %v shorter than one period %v", c.DurationS, c.PeriodS)
	}
	if c.ViolationThreshold < 0 || c.ViolationThreshold > 1 {
		return fmt.Errorf("sim: violation threshold %v out of [0,1]", c.ViolationThreshold)
	}
	if c.ObsNoiseCV < 0 {
		return fmt.Errorf("sim: negative observation noise %v", c.ObsNoiseCV)
	}
	return nil
}

// RecorderColumns returns the trace column set Run expects for a chip with
// n clusters. Pass them to trace.NewRecorder when supplying Config.Recorder.
// It is the single source of the recorder schema: Run resolves its column
// positions against this same list, so the names can never drift apart.
func RecorderColumns(n int) []string {
	cols := make([]string, 0, 2*n+3)
	for i := 0; i < n; i++ {
		cols = append(cols, levelColumn(i))
	}
	for i := 0; i < n; i++ {
		cols = append(cols, utilColumn(i))
	}
	return append(cols, "power", "qos", "critical")
}

// levelColumn and utilColumn name the per-cluster recorder columns.
func levelColumn(i int) string { return "level" + strconv.Itoa(i) }
func utilColumn(i int) string  { return "util" + strconv.Itoa(i) }

// Result is the outcome of a run.
type Result struct {
	Governor string
	Scenario string
	QoS      qos.Summary
	// Decisions counts governor invocations (one per period).
	Decisions int
	// Switches counts DVFS transitions across all clusters — the metric
	// behind the transition-cost ablation (jumpy governors pay more).
	Switches uint64
}

// Device is one simulated device's closed loop, one control period at a
// time: the chip, the scenario, the QoS tracker, the observation-noise
// stream, and every buffer the loop reuses. Run steps a Device with a
// governor's levels and a serving harness with served levels, so both run
// this one loop. A Device belongs to one goroutine.
type Device struct {
	chip *soc.Chip
	scen workload.Scenario
	cfg  Config

	tracker    *qos.Tracker
	noise      *rng.Rand // nil when cfg.ObsNoiseCV is 0
	noiseSigma float64
	periods    int // periods stepped since the last Reset

	freqs   [][]float64
	obs     []Observation
	levels  []int // Run's in-place decision buffer
	chipRes soc.ChipStep

	recorder *trace.Recorder
	recCols  []int     // recorder position of each RecorderColumns entry
	recRow   []float64 // reusable columnar row, in recorder column order
}

// NewDevice builds a device's buffers for chip and resets it to the start
// of an episode of scen under cfg.
func NewDevice(chip *soc.Chip, scen workload.Scenario, cfg Config) (*Device, error) {
	n := chip.NumClusters()
	d := &Device{
		chip:   chip,
		freqs:  make([][]float64, n),
		obs:    make([]Observation, n),
		levels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		cl := chip.Cluster(i)
		f := make([]float64, cl.NumLevels())
		for l := range f {
			f[l] = cl.OPPAt(l).FreqHz
		}
		d.freqs[i] = f
	}
	if err := d.Reset(scen, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset validates cfg and returns the device to the start of an episode of
// scen: the chip and the scenario (at cfg.Seed) reset, a fresh tracker and
// noise stream, and the start observations (see Obs). The buffers stay.
func (d *Device) Reset(scen workload.Scenario, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	threshold := cfg.ViolationThreshold
	if threshold == 0 {
		threshold = qos.DefaultViolationThreshold
	}
	tracker, err := qos.NewTracker(threshold)
	if err != nil {
		return err
	}
	if cfg.Recorder != nil {
		if err := d.bindRecorder(cfg.Recorder); err != nil {
			return err
		}
	}
	d.chip.Reset()
	scen.Reset(cfg.Seed)
	d.scen, d.cfg, d.tracker, d.periods = scen, cfg, tracker, 0

	// Observation-noise stream: deterministic, independent of the
	// workload's streams so enabling noise never perturbs the demands.
	d.noise = nil
	if cfg.ObsNoiseCV > 0 {
		d.noise = rng.NewStream(cfg.Seed, 0xB055)
		d.noiseSigma = math.Sqrt(math.Log(1 + cfg.ObsNoiseCV*cfg.ObsNoiseCV))
	}
	for i := range d.obs {
		cl := d.chip.Cluster(i)
		d.obs[i] = Observation{
			Level:     cl.Level(),
			NumLevels: cl.NumLevels(),
			FreqsHz:   d.freqs[i],
			QoS:       1,
			TempC:     cl.TempC(),
			PeriodS:   cfg.PeriodS,
		}
	}
	return nil
}

// bindRecorder resolves the schema columns of RecorderColumns against
// rec's registered columns, erroring on any mismatch — the same strictness
// the map-based path had, paid once per run instead of once per period.
func (d *Device) bindRecorder(rec *trace.Recorder) error {
	if d.recorder == rec && d.recCols != nil {
		return nil
	}
	schema := RecorderColumns(len(d.obs))
	if got := len(rec.Columns()); got != len(schema) {
		return fmt.Errorf("sim: recorder has %d columns, Run records %d", got, len(schema))
	}
	d.recCols = make([]int, len(schema))
	for j, name := range schema {
		i, ok := rec.ColumnIndex(name)
		if !ok {
			return fmt.Errorf("sim: recorder is missing column %q", name)
		}
		d.recCols[j] = i
	}
	d.recorder = rec
	d.recRow = make([]float64, len(schema))
	return nil
}

// Obs is one observation per cluster of the period that just ended: the
// input of the next decision. Step overwrites the slice in place.
//
// Before the first Step each cluster reports its starting level, chip QoS
// 1 and ClusterQoS 0. ClusterQoS 0 breaks the field's own rule (1 with no
// demand) and puts period 0 in core's lowest QoS band. It stays because
// the T1 goldens and the evaluation digest were recorded from this start,
// and served devices start here too, so they decide as Run does. ROADMAP
// keeps the fix with the fleet benchmark's debts, where the goldens move.
func (d *Device) Obs() []Observation { return d.obs }

// Summary is the QoS and energy digest of the periods stepped since the
// last Reset.
func (d *Device) Summary() qos.Summary { return d.tracker.Summary() }

// Step runs one control period: the clusters take levels (one OPP index
// per cluster, clamped to its table), the scenario emits the period's
// demands, the chip executes them, the tracker scores the period, and Obs
// then describes it. A steady-state Step allocates nothing.
func (d *Device) Step(levels []int) error {
	n := len(d.obs)
	if len(levels) != n {
		return fmt.Errorf("sim: %d levels for %d clusters", len(levels), n)
	}
	for i, lvl := range levels {
		d.chip.Cluster(i).SetLevel(lvl)
	}
	cfg := &d.cfg
	period := d.scen.Next(cfg.PeriodS)
	if len(period.Demands) != n {
		return fmt.Errorf("sim: scenario %s emitted %d demands for %d clusters", d.scen.Name(), len(period.Demands), n)
	}
	if err := d.chip.StepInto(&d.chipRes, period.Demands, cfg.PeriodS); err != nil {
		return err
	}
	chipRes := &d.chipRes

	var demanded, completed float64
	for i, dm := range period.Demands {
		demanded += dm.Cycles
		completed += chipRes.Clusters[i].CompletedCycles
	}
	q := d.tracker.Record(demanded, completed, chipRes.EnergyJ, period.Critical)

	uncoreShare := chipRes.UncorePowerW * cfg.PeriodS / float64(n)
	noise, sigma := d.noise, d.noiseSigma
	for i := range d.obs {
		cr := chipRes.Clusters[i]
		dr := 0.0
		if cr.CapacityCycles > 0 {
			dr = period.Demands[i].Cycles / cr.CapacityCycles
		}
		util := cr.Utilization
		if noise != nil {
			util *= noise.LogNorm(-sigma*sigma/2, sigma)
			if util > 1 {
				util = 1
			}
			dr *= noise.LogNorm(-sigma*sigma/2, sigma)
		}
		d.obs[i] = Observation{
			Utilization:    util,
			DemandRatio:    dr,
			QoS:            q,
			ClusterQoS:     qos.PeriodQoS(period.Demands[i].Cycles, cr.CompletedCycles),
			Critical:       period.Critical,
			Level:          d.chip.Cluster(i).Level(),
			NumLevels:      d.chip.Cluster(i).NumLevels(),
			FreqsHz:        d.freqs[i],
			EnergyJ:        chipRes.EnergyJ,
			ClusterEnergyJ: cr.EnergyJ + uncoreShare,
			TempC:          cr.TempC,
			Throttled:      cr.Throttled,
			PeriodS:        cfg.PeriodS,
		}
	}

	if cfg.Recorder != nil {
		// Columnar row in RecorderColumns order: level_i, util_i, power,
		// qos, critical — routed through the position map that
		// bindRecorder resolved once.
		row, cols := d.recRow, d.recCols
		for i := 0; i < n; i++ {
			row[cols[i]] = float64(chipRes.Clusters[i].Level)
			row[cols[n+i]] = chipRes.Clusters[i].Utilization
		}
		var power float64
		for _, cr := range chipRes.Clusters {
			power += cr.PowerW()
		}
		power += chipRes.UncorePowerW
		row[cols[2*n]] = power
		row[cols[2*n+1]] = q
		if period.Critical {
			row[cols[2*n+2]] = 1
		} else {
			row[cols[2*n+2]] = 0
		}
		if err := cfg.Recorder.RecordRow(float64(d.periods)*cfg.PeriodS, row); err != nil {
			return err
		}
	}
	d.periods++
	return nil
}

// Run simulates scenario scen on chip under governor gov. The chip and
// scenario are reset first so runs are independent; the governor is NOT
// reset, allowing pre-trained policies to be evaluated (call gov.Reset
// yourself for a cold start).
func Run(chip *soc.Chip, scen workload.Scenario, gov Governor, cfg Config) (Result, error) {
	d, err := NewDevice(chip, scen, cfg)
	if err != nil {
		return Result{}, err
	}
	return d.run(gov)
}

// run is the control loop proper: one governor decision and one Step per
// period of the episode the device was last reset to.
func (d *Device) run(gov Governor) (Result, error) {
	// The governor's in-place path is resolved once, not per period.
	inPlace, fastDecide := gov.(InPlaceGovernor)

	steps := int(d.cfg.DurationS / d.cfg.PeriodS)
	res := Result{Governor: gov.Name(), Scenario: d.scen.Name()}
	for step := 0; step < steps; step++ {
		// Governor sets levels based on the previous period's observations.
		var levels []int
		if fastDecide {
			levels = inPlace.DecideInto(d.levels, d.obs)
			d.levels = levels
		} else {
			levels = gov.Decide(d.obs)
		}
		if err := d.Step(levels); err != nil {
			return Result{}, err
		}
		res.Decisions++
	}
	res.QoS = d.Summary()
	for i := range d.obs {
		res.Switches += d.chip.Cluster(i).Switches()
	}
	return res, nil
}

// RunEpisodes runs the same (chip, scenario, governor) tuple for episodes
// consecutive episodes with per-episode seeds derived from cfg.Seed,
// returning every episode's result in order. The governor persists across
// episodes — this is the paper's online-learning setting where the policy
// keeps adapting across scenario repetitions. One Device serves every
// episode, so the frequency tables and the loop buffers are built once.
func RunEpisodes(chip *soc.Chip, scen workload.Scenario, gov Governor, cfg Config, episodes int) ([]Result, error) {
	if episodes <= 0 {
		return nil, fmt.Errorf("sim: non-positive episode count %d", episodes)
	}
	d, err := NewDevice(chip, scen, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, episodes)
	for ep := 0; ep < episodes; ep++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(ep)*0x9e3779b9
		if err := d.Reset(scen, c); err != nil {
			return nil, err
		}
		r, err := d.run(gov)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
