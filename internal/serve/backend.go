package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rlpm/internal/bus"
	"rlpm/internal/fault"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/obs"
)

// Backend is the policy a decide frame reads. The frame pins it once with
// acquire, reads one greedy action per exploit lookup from the pinned
// policy, and hands it back with release; a frame of a frozen session, or
// one that explores every cluster, never pins it. Frames run concurrently
// on the goroutines that received them, so implementations synchronize
// internally.
type Backend interface {
	Name() string
	acquire() policy
	release(policy)
}

// policy answers greedy lookups for one pinned frame. Ties break low,
// matching core.Agent and the hardware comparator tree.
type policy interface {
	Greedy(cluster, state int) int
}

// SWBackend serves lookups from the model's flat arena (core.FlatTables)
// — the software arm of the HW-vs-SW serving A/B. Each lookup scans its
// row with FlatTables.Argmax.
//
// The served model is behind an atomic pointer so an online learner can
// publish a new table set without the decide path ever taking a lock.
// Readers follow the N-reader grace rule: acquire loads the live model,
// raises its reader count, then checks the model is still live (if not,
// it lowers the count and retries), and release lowers the count. The
// learner rewrites a model it retired only when the model's count is zero.
// A reader that loaded a model just before it was retired therefore either
// raised the count before the learner looked at it — the learner writes a
// fresh arena instead — or finds on its recheck that the model is no
// longer live and moves on to the one that is.
type SWBackend struct {
	live atomic.Pointer[Model] // current policy: swapped by the learner, pinned by acquire
	// loaded and park are test seams, nil in production: loaded runs
	// between acquire's load of the live model and its count increment,
	// park once acquire holds its model.
	loaded func(*Model)
	park   func(*Model)
}

// NewSWBackend builds the software backend over model.
func NewSWBackend(m *Model) *SWBackend {
	b := &SWBackend{}
	b.live.Store(m)
	return b
}

// Name implements Backend.
func (*SWBackend) Name() string { return "sw" }

func (b *SWBackend) acquire() policy {
	for {
		m := b.live.Load()
		if b.loaded != nil {
			b.loaded(m)
		}
		m.readers.Add(1)
		if b.live.Load() == m {
			if b.park != nil {
				b.park(m)
			}
			return m
		}
		m.readers.Add(-1)
	}
}

func (b *SWBackend) release(p policy) { p.(*Model).readers.Add(-1) }

// HWBackendConfig parameterizes the hardware serving backend.
type HWBackendConfig struct {
	// Bus is the interconnect timing. Set WatchdogCycles when injecting
	// wedges, or a stuck device stalls serving for its full busy time.
	Bus bus.Config
	// Banks is the accelerator BRAM banking.
	Banks int
	// Retries is how many times a failed decision transaction is retried
	// (after a bus recovery pulse and doubling backoff) before the lookup
	// degrades to the software table walk.
	Retries int
	// BackoffCycles is the bus-clock idle before the first retry.
	BackoffCycles uint64
	// Injector, when non-nil, wraps every accelerator with the fault
	// injector so serving exercises the retry/degradation path.
	Injector *fault.Injector
}

// DefaultHWBackendConfig mirrors hwpolicy's resilient deployment defaults.
func DefaultHWBackendConfig() HWBackendConfig {
	busCfg := bus.DefaultConfig()
	busCfg.WatchdogCycles = 4096
	return HWBackendConfig{
		Bus:           busCfg,
		Banks:         hwpolicy.DefaultParams().Banks,
		Retries:       2,
		BackoffCycles: 64,
	}
}

// HWBackend serves lookups through the modeled accelerator: one inference-
// mode channel per cluster behind an MMIO driver, the serving counterpart
// of hwpolicy/batch.go's multi-channel design. The paper's platform has one
// accelerator, so every lookup is one MMIO transaction serialized on mu.
// Every transaction is retried with recovery/backoff on failure and
// degrades to the shared software tables when the hardware stays faulty,
// so an injected fault costs accuracy of the latency model, never
// availability.
type HWBackend struct {
	cfg     HWBackendConfig
	model   *Model // construction model: uploaded tables, degradation target
	drivers []*hwpolicy.Driver
	events  *obs.EventLog // nil until wired into a server

	mu sync.Mutex // the device: one MMIO transaction at a time

	decisions atomic.Uint64
	retries   atomic.Uint64
	degraded  atomic.Uint64
	busLatNs  atomic.Int64
}

// setEventLog wires the server's event log in; called by serve.New before
// any decide runs, so no lookup races it. Clusters whose
// bring-up already degraded are reported immediately.
func (b *HWBackend) setEventLog(l *obs.EventLog) {
	b.events = l
	for c, d := range b.drivers {
		if d == nil {
			l.Addf("hw", "cluster %d bring-up failed: serving from software tables", c)
		}
	}
	if inj := b.cfg.Injector; inj != nil {
		inj.SetEventLog(l)
	}
}

// NewHWBackend uploads the model's tables into per-cluster accelerators.
// An upload that keeps failing under injected faults leaves that cluster's
// driver nil: its lookups serve from software, counted as degraded.
func NewHWBackend(m *Model, cfg HWBackendConfig) (*HWBackend, error) {
	if err := cfg.Bus.Validate(); err != nil {
		return nil, err
	}
	if cfg.Banks < 1 {
		return nil, fmt.Errorf("serve: need at least one BRAM bank")
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("serve: negative retry count %d", cfg.Retries)
	}
	b := &HWBackend{cfg: cfg, model: m}
	b.drivers = make([]*hwpolicy.Driver, len(m.levels))
	mc := m.Config()
	tables := m.Snapshot().Tables
	for c, levels := range m.levels {
		p := hwpolicy.Params{
			NumStates:  mc.State.States(levels),
			NumActions: levels,
			Banks:      cfg.Banks,
			LFSRSeed:   uint16(0xACE1 + 2*c + 1),
		}
		accel, err := hwpolicy.New(p)
		if err != nil {
			return nil, fmt.Errorf("serve: sizing accelerator for cluster %d: %w", c, err)
		}
		var dev bus.Device = accel
		if cfg.Injector != nil {
			dev = fault.NewDevice(accel, accel, cfg.Injector)
		}
		d, err := hwpolicy.NewDriverDevice(cfg.Bus, accel, dev)
		if err != nil {
			return nil, fmt.Errorf("serve: wiring driver for cluster %d: %w", c, err)
		}
		// Inference mode: no learning, no hardware exploration —
		// device-local ε lives in the session layer.
		if err := b.retrying(d, func() error { return d.Configure(mc.Alpha, mc.Gamma, 0, false) }); err != nil {
			b.degraded.Add(1)
			continue // serve this cluster from software
		}
		if err := b.retrying(d, func() error { return d.UploadTable(tables[c]) }); err != nil {
			b.degraded.Add(1)
			continue
		}
		b.drivers[c] = d
	}
	return b, nil
}

// Name implements Backend.
func (*HWBackend) Name() string { return "hw" }

func (b *HWBackend) acquire() policy { return b }

func (b *HWBackend) release(policy) {}

// Greedy runs one MMIO decision transaction for (cluster, state) on the
// device, with retry/backoff and software degradation.
func (b *HWBackend) Greedy(cluster, state int) int {
	var d *hwpolicy.Driver
	if cluster < len(b.drivers) {
		d = b.drivers[cluster]
	}
	if d == nil {
		b.degraded.Add(1)
		return b.model.Greedy(cluster, state)
	}
	var action int
	var lat time.Duration
	b.mu.Lock()
	err := b.retrying(d, func() error {
		a, l, e := d.Step(state, 0)
		if e != nil {
			return e
		}
		action, lat = a, l
		return nil
	})
	b.mu.Unlock()
	if err != nil || action < 0 || action >= b.model.levels[cluster] {
		// Transaction failed all retries, or a fault corrupted the action
		// read: the shared software tables answer instead.
		b.degraded.Add(1)
		if b.events != nil {
			if err != nil {
				b.events.Addf("hw", "cluster %d lookup degraded after retries: %v", cluster, err)
			} else {
				b.events.Addf("hw", "cluster %d lookup degraded: corrupt action %d", cluster, action)
			}
		}
		return b.model.Greedy(cluster, state)
	}
	b.decisions.Add(1)
	b.busLatNs.Add(lat.Nanoseconds())
	return action
}

// retrying runs op with the recovery/backoff discipline hwpolicy.Resilient
// uses: recovery pulse, doubling idle, bounded attempts.
func (b *HWBackend) retrying(d *hwpolicy.Driver, op func() error) error {
	var err error
	for attempt := 0; attempt <= b.cfg.Retries; attempt++ {
		if attempt > 0 {
			b.retries.Add(1)
			d.Bus().Recover()
			d.Bus().Idle(b.cfg.BackoffCycles << uint(attempt-1))
		}
		if err = op(); err == nil {
			return nil
		}
	}
	d.Bus().Recover()
	return err
}

func (b *HWBackend) statsSnapshot() *HWStats {
	st := &HWStats{
		Decisions: b.decisions.Load(),
		Retries:   b.retries.Load(),
		Degraded:  b.degraded.Load(),
	}
	if st.Decisions > 0 {
		st.MeanLatNs = float64(b.busLatNs.Load()) / float64(st.Decisions)
	}
	return st
}
