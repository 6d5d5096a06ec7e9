package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/fault"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/obs"
)

// Lookup is one greedy Q-table query: which cluster's table, which state.
type Lookup struct {
	Cluster int
	State   int
}

// Backend resolves batches of greedy lookups against the frozen policy.
// Decide is only ever called from the server's single batch worker, so
// implementations need no internal synchronization on the decision path
// (metrics counters read by /metrics still use atomics).
type Backend interface {
	Name() string
	// Decide writes the greedy action for lookups[i] into out[i];
	// len(out) == len(lookups).
	Decide(lookups []Lookup, out []int) error
}

// SWBackend serves lookups from the model's flat arena (core.FlatTables)
// — the software arm of the HW-vs-SW serving A/B. A batch is packed into
// offset keys and resolved against the contiguous arena with per-row
// memoization, so a batch of fleet lookups scans each hot row once;
// batches of one or two lookups skip the packing and read rows directly.
// keys and memo are backend-owned scratch — Decide runs only on the single
// batch worker.
//
// The served model is behind an atomic pointer so an online learner can
// publish a new table set without the decide path ever taking a lock:
// Decide loads the pointer once per batch and never writes the arena. A
// published arena is never written: the learner rewrites only an arena it
// owns, after retiring it with an atomic swap and waiting out its grace
// period — once finished reaches the begun count read right after the
// swap, every Decide that could have loaded it has returned. The
// epoch-tagged memo never needs clearing on a swap:
// the learner's models share the construction model's shape, so the memo
// keeps fitting (core.FlatMemo.Fits guards the one way that could break),
// and the memo's per-call epoch already invalidates every cached row
// between batches.
type SWBackend struct {
	live atomic.Pointer[Model] // current policy: swapped by the learner, read by Decide
	// begun and finished count Decide calls. Calls never overlap (one
	// batch worker), so finished >= n means the first n calls returned.
	begun, finished atomic.Uint64
	keys            []uint64       // scratch: packed lookup keys of one batch
	memo            *core.FlatMemo // scratch: per-row argmax memo across one batch
	// park, when set, runs while Decide holds its model: the test seam
	// that keeps a reader inside its grace period. nil in production.
	park func(*Model)
}

// NewSWBackend builds the software backend over model.
func NewSWBackend(m *Model) *SWBackend {
	b := &SWBackend{memo: m.flat.NewMemo()}
	b.live.Store(m)
	return b
}

// Name implements Backend.
func (*SWBackend) Name() string { return "sw" }

// Decide implements Backend. It cannot fail: the session layer validates
// cluster/state ranges before queueing.
func (b *SWBackend) Decide(lookups []Lookup, out []int) error {
	b.begun.Add(1)
	defer b.finished.Add(1)
	m := b.live.Load()
	if b.park != nil {
		b.park(m)
	}
	ft := m.flat
	if len(lookups) <= 2 || len(lookups) > core.MaxFlatBatch || !b.memo.Fits(ft) {
		// A batch too small for memoization to pay off, one too large for
		// the packed key's index field, or an arena the memo was not sized
		// for: per-lookup row scans.
		for i, l := range lookups {
			out[i] = m.Greedy(l.Cluster, l.State)
		}
		return nil
	}
	if cap(b.keys) < len(lookups) {
		b.keys = make([]uint64, len(lookups))
	}
	keys := b.keys[:len(lookups)]
	for i, l := range lookups {
		keys[i] = ft.Key(l.Cluster, l.State, i)
	}
	ft.LookupManyInto(keys, out, b.memo)
	return nil
}

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
// of hwpolicy/batch.go's multi-channel design. Every transaction is
// retried with recovery/backoff on failure and degrades to the shared
// software tables when the hardware stays faulty, so an injected fault
// costs accuracy of the latency model, never availability.
type HWBackend struct {
	cfg     HWBackendConfig
	model   *Model // construction model: uploaded tables, degradation target
	drivers []*hwpolicy.Driver
	events  *obs.EventLog // nil until wired into a server

	decisions atomic.Uint64
	retries   atomic.Uint64
	degraded  atomic.Uint64
	busLatNs  atomic.Int64
}

// setEventLog wires the server's event log in; called by serve.New before
// the batch worker starts, so Decide never races it. Clusters whose
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

// Decide implements Backend: one MMIO decision transaction per lookup,
// with retry/backoff and software degradation.
func (b *HWBackend) Decide(lookups []Lookup, out []int) error {
	for i, l := range lookups {
		var d *hwpolicy.Driver
		if l.Cluster < len(b.drivers) {
			d = b.drivers[l.Cluster]
		}
		if d == nil {
			out[i] = b.model.Greedy(l.Cluster, l.State)
			b.degraded.Add(1)
			continue
		}
		var action int
		var lat time.Duration
		err := b.retrying(d, func() error {
			a, l2, e := d.Step(l.State, 0)
			if e != nil {
				return e
			}
			action, lat = a, l2
			return nil
		})
		if err != nil || action < 0 || action >= b.model.levels[l.Cluster] {
			// Transaction failed all retries, or a fault corrupted the
			// action read: the shared software tables answer instead.
			out[i] = b.model.Greedy(l.Cluster, l.State)
			b.degraded.Add(1)
			if b.events != nil {
				if err != nil {
					b.events.Addf("hw", "cluster %d lookup degraded after retries: %v", l.Cluster, err)
				} else {
					b.events.Addf("hw", "cluster %d lookup degraded: corrupt action %d", l.Cluster, action)
				}
			}
			continue
		}
		out[i] = action
		b.decisions.Add(1)
		b.busLatNs.Add(lat.Nanoseconds())
	}
	return nil
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
