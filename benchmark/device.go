package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"rlpm/internal/qos"
	"rlpm/internal/serve"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// periodS is every device's control period: a device offers 20 decisions
// per second, in frames of K periods.
const periodS = 0.05

// scenarioCycle assigns scenarios by device index.
var scenarioCycle = []string{"gaming", "video", "browsing", "idle", "camera", "applaunch"}

// Windows of one run; a device keeps one ledger per window: the warm-up,
// then per round a nominal, a traced (traced runs only), a peak and a
// saturation window.
const (
	kindNominal = iota
	kindTraced
	kindPeak
	kindSat
	numKinds
)

const (
	winWarm    = 0
	numWindows = 1 + rounds*numKinds
)

func window(round, kind int) int { return 1 + round*numKinds + kind }

// ledger is one device's account of one window. Only the worker currently
// holding the device writes it; the run reads it after the window drains.
type ledger struct {
	frames    uint64 // decide frames attempted
	failed    uint64 // frames whose decide (or reward) failed
	decisions uint64 // control periods decided
	periods   uint64 // control periods simulated
	energyJ   float64
	qosSum    float64
	lat       []int64 // frame latency from its due time, ns
	late      []int64 // how late an idle device's frame started, ns
}

// device is one simulated handset: a chip and a workload stream stepped
// through soc, workload and qos, talking to the servers through one
// session. Frames of one device run strictly one after another.
type device struct {
	idx, k, n   int
	rewardEvery int // periods between reward reports; 0 sends none
	opts        serve.SessionOptions
	chip        *soc.Chip
	scen        workload.Scenario
	res         soc.ChipStep
	obs         []serve.Observation // the latest period's observations
	frame       []serve.Observation // K periods' observations, period by period
	lastJ       float64             // energy of the latest period
	frames      int                 // frames decided so far
	dead        error               // first failure; the device sends nothing after it

	decide  func(context.Context, []serve.Observation) ([]int, error)
	reward  func(context.Context, float64) (serve.SessionStats, error)
	handles []string // the id of every session opened, the current one last

	pending  atomic.Int32 // frames due and not yet finished
	winFrame int64        // index of the next frame within the paced window
	acct     [numWindows]ledger
	rec      *record // oracle recording, for every 64th device
	spans    []span  // traced-window spans
	traceWin int     // the traced window being paced
}

// record is a device's full (observations, levels) history for the
// in-process replay. Each deployment opens a fresh session, so sessions
// start at the recorded frame indices in starts.
type record struct {
	obs    []serve.Observation
	levels []int
	starts []int
}

func newDevice(spec workloadSpec, seed uint64, idx int) (*device, error) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return nil, err
	}
	ws, err := workload.ByName(scenarioCycle[idx%len(scenarioCycle)])
	if err != nil {
		return nil, err
	}
	dseed := serve.DeviceSeed(seed, idx)
	scen, err := workload.New(ws, chip.NumClusters(), dseed)
	if err != nil {
		return nil, err
	}
	chip.Reset()
	scen.Reset(dseed)
	d := &device{idx: idx, k: spec.K, n: chip.NumClusters(), chip: chip, scen: scen}
	d.opts = serve.SessionOptions{Seed: dseed}
	if spec.Learn {
		d.opts.Epsilon = learnEpsilon
		d.rewardEvery = rewardEvery
	}
	d.obs = make([]serve.Observation, d.n)
	for i := range d.obs {
		d.obs[i] = serve.Observation{QoS: 1, ClusterQoS: 1, Level: chip.Cluster(i).Level()}
	}
	d.frame = make([]serve.Observation, 0, d.k*d.n)
	return d, nil
}

// advance steps the chip one control period at its current levels and
// rebuilds obs from the step's telemetry.
func (d *device) advance(l *ledger) error {
	p := d.scen.Next(periodS)
	if err := d.chip.StepInto(&d.res, p.Demands, periodS); err != nil {
		return err
	}
	var demanded, completed float64
	for i, dm := range p.Demands {
		demanded += dm.Cycles
		completed += d.res.Clusters[i].CompletedCycles
	}
	q := qos.PeriodQoS(demanded, completed)
	for i := range d.obs {
		cr := d.res.Clusters[i]
		dr := 0.0
		if cr.CapacityCycles > 0 {
			dr = p.Demands[i].Cycles / cr.CapacityCycles
		}
		d.obs[i] = serve.Observation{
			Utilization: cr.Utilization,
			DemandRatio: dr,
			QoS:         q,
			ClusterQoS:  qos.PeriodQoS(p.Demands[i].Cycles, cr.CompletedCycles),
			Critical:    p.Critical,
			Level:       d.chip.Cluster(i).Level(),
		}
	}
	d.lastJ = d.res.EnergyJ
	l.energyJ += d.res.EnergyJ
	l.qosSum += q
	l.periods++
	return nil
}

// runFrame runs one decide frame that started at start (ns on the run
// clock): simulate the frame's periods — the first under the levels the
// previous frame chose, the rest open-loop — decide them in one call, apply
// the freshest period's levels, and report a reward when one is due. It
// returns when the decide answered, which is where the frame's latency
// ends.
func (d *device) runFrame(ctx context.Context, r *runClock, l *ledger, traced bool, due, start int64) (done int64, err error) {
	f := d.frames
	d.frame = d.frame[:0]
	for p := 0; p < d.k; p++ {
		if p > 0 || d.frames > 0 {
			if err := d.advance(l); err != nil {
				return 0, err
			}
		}
		d.frame = append(d.frame, d.obs...)
	}
	stepped := r.now()
	levels, err := d.decide(ctx, d.frame)
	done = r.now()
	if traced {
		d.addSpan(spanPace, f, due, start)
		d.addSpan(spanStep, f, start, stepped)
		d.addSpan(spanDecide, f, stepped, done)
	}
	if err != nil {
		return done, fmt.Errorf("device %d frame %d: %w", d.idx, f, err)
	}
	if len(levels) != len(d.frame) {
		return done, fmt.Errorf("device %d frame %d: %d levels for %d observations", d.idx, f, len(levels), len(d.frame))
	}
	if d.rec != nil {
		d.rec.obs = append(d.rec.obs, d.frame...)
		d.rec.levels = append(d.rec.levels, levels...)
	}
	last := levels[(d.k-1)*d.n:]
	for i, lvl := range last {
		d.chip.Cluster(i).SetLevel(lvl)
	}
	d.frames++
	if d.rewardEvery > 0 && (d.frames*d.k)/d.rewardEvery != ((d.frames-1)*d.k)/d.rewardEvery {
		if _, err := d.reward(ctx, -d.lastJ); err != nil {
			return done, fmt.Errorf("device %d reward after frame %d: %w", d.idx, f, err)
		}
		if traced {
			d.addSpan(spanReward, f, done, r.now())
		}
	}
	return done, nil
}
