// Fleet driver: the one device fleet every remote harness runs. RunFleet
// gives each simulated device its own session and its own life (open,
// decide every period, reward on cadence, close), so the chaos harness,
// the sharded rebalance harness and pmload's remote smoke differ only in
// the endpoint the sessions open against and in the mid-run events
// (FleetEvent) RunFleet runs for them: a server restart, a shard's
// removal or addition. Every device is a sim.Device — the closed loop
// sim.Run steps — so a served device and an in-process simulation of the
// same seed step through the same code. The same config replays each
// device against a fault-free in-process server (Oracle,
// OracleMismatches), Hygiene records goroutines and heap around the run,
// and FleetVerdict judges the invariants every harness holds a run to.
// FleetClient and ServeFront are the harnesses' device client and device
// front on either proto.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/qos"
	"rlpm/internal/sim"
	"rlpm/internal/soc"
	"rlpm/internal/workload"
)

// FleetConfig is the device side of a fleet run. The harness configs
// (ChaosConfig, LearnLoadConfig, and the shard package's RebalanceConfig)
// embed it and fill its zero fields through WithDefaults.
type FleetConfig struct {
	// Devices is the concurrent device count, one session each.
	Devices int
	// Periods is the decide count per device; the run is work-based, so
	// the completeness invariant is exact.
	Periods int
	// Seed derives every device's stream seed (DeviceSeed).
	Seed uint64
	// Scenario is the workload every device runs.
	Scenario string
	// Epsilon is the per-session exploration rate. Non-zero is the
	// interesting setting for a harness: exploration draws make decisions
	// stateful, so any dedup, resume or handoff bug shows up as a diverged
	// sequence.
	Epsilon float64
	// RewardEvery posts a reward every that many periods (0 or negative
	// disables).
	RewardEvery int
}

// WithDefaults fills c's zero fields: 8 devices × 200 periods of gaming
// from seed 1, posting a reward every 25 periods.
func (c FleetConfig) WithDefaults() FleetConfig {
	if c.Devices == 0 {
		c.Devices = 8
	}
	if c.Periods == 0 {
		c.Periods = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scenario == "" {
		c.Scenario = "gaming"
	}
	if c.RewardEvery == 0 {
		c.RewardEvery = 25
	}
	return c
}

// Validate refuses a fleet without a device or a period.
func (c FleetConfig) Validate() error {
	if c.Devices < 1 || c.Periods < 1 {
		return fmt.Errorf("serve: a fleet needs at least one device and one period, got %d devices × %d periods", c.Devices, c.Periods)
	}
	return nil
}

// DeviceSeed derives device idx's stream seed from the fleet base seed.
// The derivation depends on the device id ONLY — not on the endpoint, the
// transport, or how devices are partitioned across shards — so a json
// run, a bin run, and an N-shard run over the same fleet replay the same
// per-device scenario and exploration streams, and one single-process
// oracle diffs against all of them. (The harness differentials and the
// fleet benchmark's replayed devices depend on this exact formula; change
// it and every differential test says so.)
func DeviceSeed(base uint64, device int) uint64 {
	return base + uint64(device)*0x9e3779b9
}

// devicePeriodS is every simulated device's control period in seconds.
const devicePeriodS = 0.05

// fleetDevice is one simulated device as the serving harnesses drive it:
// a sim.Device on the default chip stepping devicePeriodS periods of its
// scenario from its seed, its observations in wire form, and every level
// it was served.
type fleetDevice struct {
	sim         *sim.Device
	obs         []Observation // the next decide's input
	trace       []int         // served levels, period by period
	rewardEvery int
}

// newFleetDevice builds a device at the start of its scenario's stream.
// rewardEvery is its reward cadence in periods (0 or negative: never).
func newFleetDevice(scenario string, seed uint64, rewardEvery int) (*fleetDevice, error) {
	chip, err := soc.NewChip(soc.DefaultChipSpec())
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(scenario)
	if err != nil {
		return nil, err
	}
	scen, err := workload.New(spec, chip.NumClusters(), seed)
	if err != nil {
		return nil, err
	}
	// The harness counts a served device's periods, so the duration is
	// only the one period Config.Validate asks for.
	dev, err := sim.NewDevice(chip, scen, sim.Config{PeriodS: devicePeriodS, DurationS: devicePeriodS, Seed: seed})
	if err != nil {
		return nil, err
	}
	d := &fleetDevice{sim: dev, obs: make([]Observation, chip.NumClusters()), rewardEvery: rewardEvery}
	wireObs(d.obs, dev.Obs())
	return d, nil
}

// step is one period of a device's life: decide serves the levels for the
// current observations, and the device runs the period at them. It
// returns the device's reward for the period (minus its whole-chip
// energy) and whether the reward cadence says to post it.
func (d *fleetDevice) step(decide func([]Observation) ([]int, error)) (reward float64, due bool, err error) {
	levels, err := decide(d.obs)
	if err != nil {
		return 0, false, err
	}
	if err := d.sim.Step(levels); err != nil {
		return 0, false, err
	}
	d.trace = append(d.trace, levels...)
	obs := d.sim.Obs()
	wireObs(d.obs, obs)
	periods := len(d.trace) / len(d.obs)
	return -obs[0].EnergyJ, d.rewardEvery > 0 && periods%d.rewardEvery == 0, nil
}

// life runs device idx of the fleet through c.Periods periods, deciding
// through decide and posting each due reward through reward (nil: none).
// It returns the device, also when a period fails (nil if it could not be
// built).
func (c FleetConfig) life(idx int, decide func([]Observation) ([]int, error), reward func(float64) error) (*fleetDevice, error) {
	d, err := newFleetDevice(c.Scenario, DeviceSeed(c.Seed, idx), c.RewardEvery)
	if err != nil {
		return nil, err
	}
	for p := 0; p < c.Periods; p++ {
		r, due, err := d.step(decide)
		if err != nil {
			return d, err
		}
		if due && reward != nil {
			if err := reward(r); err != nil {
				return d, fmt.Errorf("reward at period %d: %w", p, err)
			}
		}
	}
	return d, nil
}

// FleetRun is the evidence a fleet run leaves.
type FleetRun struct {
	Traces    [][]int       // each device's decision sequence
	QoS       []qos.Summary // each device's QoS and energy digest
	Errs      []error       // each device's failure; nil when it completed
	Decisions uint64        // acked decides
	Rewards   uint64        // acked rewards
	EventErr  error         // why a mid-run event failed or never ran; nil when all ran
}

// newFleetRun is the empty evidence of a fleet of n devices.
func newFleetRun(n int) *FleetRun {
	return &FleetRun{Traces: make([][]int, n), QoS: make([]qos.Summary, n), Errs: make([]error, n)}
}

// record files device idx's trace and digest; d is nil when the device
// could not be built.
func (run *FleetRun) record(idx int, d *fleetDevice) {
	if d != nil {
		run.Traces[idx], run.QoS[idx] = d.trace, d.sim.Summary()
	}
}

// FleetEvent is a mid-run change a harness makes to the serving side,
// such as a server restart or a shard's removal. RunFleet runs Do once At
// decisions are acked fleet-wide. Every device that acked the At-th
// decision or a later one holds, before it applies the levels, until Do
// returns: the change lands mid-stream with every session live, while the
// devices that had not acked yet keep their calls in flight across it.
type FleetEvent struct {
	At uint64
	Do func() error
}

// fleetEventStall bounds the wait for an event's threshold, from the run's
// start or the previous event's end: a fleet that has not acked At
// decisions by then has stalled.
const fleetEventStall = 60 * time.Second

// runEvents is RunFleet's controller. It runs each event once the device
// that acks its At-th decision closes reached (an At of 0 runs at once),
// and then closes ran. The first event that fails, or whose threshold is
// not reached before ctx ends, fleetDone closes or fleetEventStall passes,
// stops the schedule: every ran still open closes, releasing every held
// device, and runEvents returns the event's error.
func runEvents(ctx context.Context, events []FleetEvent, reached, ran []chan struct{}, acked func() uint64, fleetDone <-chan struct{}) error {
	next := 0
	defer func() {
		for _, ch := range ran[next:] {
			close(ch)
		}
	}()
	for ; next < len(events); next++ {
		ev := events[next]
		if ev.At > 0 {
			stall := time.NewTimer(fleetEventStall)
			var err error
			select {
			case <-reached[next]:
			case <-ctx.Done():
				err = ctx.Err()
			case <-fleetDone:
				err = errors.New("the fleet ended")
			case <-stall.C:
				err = errors.New("the fleet stalled")
			}
			stall.Stop()
			if err != nil {
				return fmt.Errorf("event %d: %w at %d of its %d acked decisions", next+1, err, acked(), ev.At)
			}
		}
		if err := ev.Do(); err != nil {
			return fmt.Errorf("event %d at %d acked decisions: %w", next+1, ev.At, err)
		}
		close(ran[next])
	}
	return nil
}

// RunFleet runs cfg.Devices devices concurrently, each over a session from
// open, with events in At order (FleetEvent), and waits for all of them.
// An event that fails or is never reached runs no later event, releases
// every held device, and lands in the run's EventErr.
func RunFleet(ctx context.Context, cfg FleetConfig, open func(context.Context, SessionOptions) (*RemoteSession, error), events ...FleetEvent) *FleetRun {
	run := newFleetRun(cfg.Devices)
	var decisions, rewards atomic.Uint64
	reached, ran := make([]chan struct{}, len(events)), make([]chan struct{}, len(events))
	for i := range events {
		reached[i], ran[i] = make(chan struct{}), make(chan struct{})
	}
	fleetDone, eventErr := make(chan struct{}), make(chan error, 1)
	go func() { eventErr <- runEvents(ctx, events, reached, ran, decisions.Load, fleetDone) }()
	var wg sync.WaitGroup
	for d := 0; d < cfg.Devices; d++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sess, err := open(ctx, SessionOptions{Epsilon: cfg.Epsilon, Seed: DeviceSeed(cfg.Seed, idx)})
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d open: %w", idx, err)
				return
			}
			decide := func(obs []Observation) ([]int, error) {
				lv, err := sess.Decide(ctx, obs)
				if err != nil {
					return nil, err
				}
				// The count grows by one per ack, so exactly one device
				// reaches each event; it and every later one hold until
				// the event ran.
				n := decisions.Add(1)
				for i, ev := range events {
					if n == ev.At {
						close(reached[i])
					}
					if n >= ev.At {
						select {
						case <-ran[i]:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
				}
				return lv, nil
			}
			reward := func(r float64) error {
				if _, err := sess.Reward(ctx, r); err != nil {
					return err
				}
				rewards.Add(1)
				return nil
			}
			dev, err := cfg.life(idx, decide, reward)
			run.record(idx, dev)
			if err != nil {
				run.Errs[idx] = fmt.Errorf("device %d: %w", idx, err)
				return
			}
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := sess.Close(cctx); err != nil {
				run.Errs[idx] = fmt.Errorf("device %d close: %w", idx, err)
			}
		}(d)
	}
	wg.Wait()
	close(fleetDone)
	run.EventErr = <-eventErr
	run.Decisions, run.Rewards = decisions.Load(), rewards.Load()
	return run
}

// Oracle runs every device of c, one after another, against a fault-free
// in-process server over model, through the same device life RunFleet
// gives each device. It posts no rewards, which a frozen policy ignores.
// A fleet served over model by any endpoint must reproduce its traces and
// digests.
func (c FleetConfig) Oracle(model *Model) (*FleetRun, error) {
	srv, err := New(model, nil, Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	run := newFleetRun(c.Devices)
	for idx := 0; idx < c.Devices; idx++ {
		sess, err := srv.CreateSession(SessionOptions{Epsilon: c.Epsilon, Seed: DeviceSeed(c.Seed, idx)})
		if err != nil {
			return nil, err
		}
		dev, err := c.life(idx, sess.Decide, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle device %d: %w", idx, err)
		}
		run.record(idx, dev)
		run.Decisions += uint64(c.Periods)
	}
	return run, nil
}

// OracleMismatches counts the devices of run that completed but whose
// trace differs from c's Oracle over model. Faults, retries, restarts and
// handoffs may cost time, never a decision.
func (c FleetConfig) OracleMismatches(model *Model, run *FleetRun) (int, error) {
	want, err := c.Oracle(model)
	if err != nil {
		return 0, err
	}
	mismatches := 0
	for idx, got := range run.Traces {
		if run.Errs[idx] == nil && !slices.Equal(got, want.Traces[idx]) {
			mismatches++
		}
	}
	return mismatches, nil
}

// Hygiene is a fleet run's resource evidence: goroutines and live heap
// before the run and after its teardown.
type Hygiene struct {
	GoroutinesStart int    `json:"goroutines_start"`
	GoroutinesEnd   int    `json:"goroutines_end"`
	HeapAllocStart  uint64 `json:"heap_alloc_start"`
	HeapAllocEnd    uint64 `json:"heap_alloc_end"`
}

// maxHeapGrowth bounds the live heap a run may leave behind.
const maxHeapGrowth = 256 << 20

// Start records the baseline after a collection.
func (h *Hygiene) Start() {
	h.HeapAllocStart = heapAlloc()
	h.GoroutinesStart = runtime.NumGoroutine()
}

// End gives goroutines up to five seconds to settle back to the baseline,
// then records the end state after a collection.
func (h *Hygiene) End() {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > h.GoroutinesStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	h.HeapAllocEnd = heapAlloc()
	h.GoroutinesEnd = runtime.NumGoroutine()
}

// heapAlloc is the live heap after a full collection.

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// FleetVerdict judges the invariants every fleet harness holds a run to
// and reports each one violated: no device failed, every mid-run event
// ran, every device acked exactly cfg.Periods decisions (none lost, none
// duplicated), no trace diverged from the oracle, no goroutine outlived
// the run, and the heap did not balloon.
func FleetVerdict(cfg FleetConfig, run *FleetRun, mismatches int, h Hygiene) error {
	var errs []error
	for _, err := range run.Errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: %w", err))
		}
	}
	if run.EventErr != nil {
		errs = append(errs, fmt.Errorf("fleet: mid-run event: %w", run.EventErr))
	}
	if want := uint64(cfg.Devices) * uint64(cfg.Periods); run.Decisions != want {
		errs = append(errs, fmt.Errorf("fleet: acked %d decisions, want %d (lost or duplicated)", run.Decisions, want))
	}
	if mismatches > 0 {
		errs = append(errs, fmt.Errorf("fleet: %d device(s) diverged from the fault-free oracle", mismatches))
	}
	if h.GoroutinesEnd > h.GoroutinesStart {
		errs = append(errs, fmt.Errorf("fleet: leaked goroutines: %d before, %d after", h.GoroutinesStart, h.GoroutinesEnd))
	}
	if h.HeapAllocEnd > h.HeapAllocStart+maxHeapGrowth {
		errs = append(errs, fmt.Errorf("fleet: heap grew %d bytes", h.HeapAllocEnd-h.HeapAllocStart))
	}
	return errors.Join(errs...)
}

// CheckProto refuses a device transport other than "bin" (the binary wire
// protocol) or "json" (HTTP/JSON).
func CheckProto(proto string) error {
	if proto != "bin" && proto != "json" {
		return fmt.Errorf("serve: unknown proto %q (want bin or json)", proto)
	}
	return nil
}

// FleetCallTimeout is a harness device client's per-attempt deadline, so
// a stalled connection turns into a retry quickly; the rebalance harness's
// router forwards under it too. fleetRetryBudget is the client's retry
// window per call, which must cover a server restart or a shard handoff.
const (
	FleetCallTimeout = 2 * time.Second
	fleetRetryBudget = 30 * time.Second
)

// FleetClient is the device client a harness opens its fleet's sessions
// on: a BinClient for proto "bin", a Client for "json".
type FleetClient struct {
	// Open opens one device's session; RunFleet takes it.
	Open func(context.Context, SessionOptions) (*RemoteSession, error)
	// Stats is the transport ledger; an HTTP client counts no dials.
	Stats func() BinClientStats
	// Close releases the client's connections.
	Close func()
}

// NewFleetClient builds the harness client for proto at addr (host:port),
// under FleetCallTimeout per attempt and fleetRetryBudget per call.
func NewFleetClient(proto, addr string) (*FleetClient, error) {
	if err := CheckProto(proto); err != nil {
		return nil, err
	}
	if proto == "bin" {
		c := NewBinClient(addr)
		c.SetCallTimeout(FleetCallTimeout)
		c.SetRetryBudget(fleetRetryBudget)
		return &FleetClient{Open: c.OpenSession, Stats: c.TransportStats, Close: c.Close}, nil
	}
	c := NewClient("http://" + addr)
	c.SetCallTimeout(FleetCallTimeout)
	c.SetRetryBudget(fleetRetryBudget)
	return &FleetClient{Open: c.CreateSession, Stats: c.TransportStats, Close: c.CloseIdleConnections}, nil
}

// Front is a device front a harness serves on one listener: a Server's or
// a Router's binary or HTTP/JSON face.
type Front struct {
	ln   net.Listener
	hs   *http.Server  // the JSON face; nil for bin
	done chan struct{} // closed once the serve loop returned
}

// ServeFront serves s's face for proto on ln in the background until
// Close.
func ServeFront(s interface {
	ServeBin(net.Listener) error
	Handler() http.Handler
}, proto string, ln net.Listener) (*Front, error) {
	if err := CheckProto(proto); err != nil {
		return nil, err
	}
	f := &Front{ln: ln, done: make(chan struct{})}
	// The serve loops' errors are dropped: after Close they report only
	// the close, and a harness judges its run by what the devices saw.
	if proto == "bin" {
		go func() { defer close(f.done); _ = s.ServeBin(ln) }()
	} else {
		f.hs = &http.Server{Handler: s.Handler()}
		go func() { defer close(f.done); _ = f.hs.Serve(ln) }()
	}
	return f, nil
}

// Close closes the front's HTTP connections and its listener and waits
// for its serve loop to return. It may be called again.
func (f *Front) Close() {
	if f.hs != nil {
		f.hs.Close()
	}
	f.ln.Close()
	<-f.done
}
