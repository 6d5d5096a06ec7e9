package fault

import (
	"fmt"

	"rlpm/internal/bus"
)

// Corruptor is the back door a device exposes for memory-array faults:
// the injector flips Q BRAM bits behind the register file's back, the way
// a single-event upset does. internal/hwpolicy.Accel implements it.
type Corruptor interface {
	// QWords returns the number of words in the corruptible array.
	QWords() int
	// CorruptQBit flips one bit of one word without updating any
	// protection metadata (parity planes stay stale — that is the fault).
	CorruptQBit(word int, bit uint)
}

// Device wraps a bus.Device and injects interconnect and memory faults
// according to the injector's config. It implements bus.Device, so it
// slots between any driver and its accelerator:
//
//	accel, _ := hwpolicy.New(params)
//	dev := fault.NewDevice(accel, accel, inj)
//	drv, _ := hwpolicy.NewDriverDevice(busCfg, accel, dev)
//
// Decision-scoped faults (Q-table SEUs, latency spikes, wedged-busy
// episodes) trigger on compute-starting writes — the doorbell — because
// that is when the datapath and BRAM are active; register-scoped faults
// (transient errors, read-data flips) trigger on any transaction.
type Device struct {
	dev bus.Device
	cor Corruptor // may be nil: no memory-array faults possible
	inj *Injector
}

var _ bus.Device = (*Device)(nil)

// NewDevice wraps dev. cor may be nil (or dev itself when it implements
// Corruptor); QFlipRate requires a non-nil cor to have any effect.
func NewDevice(dev bus.Device, cor Corruptor, inj *Injector) *Device {
	return &Device{dev: dev, cor: cor, inj: inj}
}

// ReadReg implements bus.Device: a transient error may replace the read,
// and the returned data may suffer a single-bit flip.
func (d *Device) ReadReg(addr uint32) (uint32, error) {
	in := d.inj
	if hit(in.busR, in.cfg.ReadErrorRate) {
		in.stats.ReadErrors++
		return 0, fmt.Errorf("fault: read %#x: %w", addr, ErrInjected)
	}
	v, err := d.dev.ReadReg(addr)
	if err != nil {
		return v, err
	}
	if hit(in.busR, in.cfg.ReadFlipRate) {
		v ^= 1 << uint(in.busR.Intn(32))
		in.stats.ReadFlips++
	}
	return v, nil
}

// WriteReg implements bus.Device: a transient error may reject the write;
// a successful compute-starting write may additionally suffer a Q-table
// SEU, a latency spike, or a wedged-busy episode.
func (d *Device) WriteReg(addr, val uint32) (uint64, error) {
	in := d.inj
	if hit(in.busR, in.cfg.WriteErrorRate) {
		in.stats.WriteErrors++
		return 0, fmt.Errorf("fault: write %#x: %w", addr, ErrInjected)
	}
	compute, err := d.dev.WriteReg(addr, val)
	if err != nil || compute == 0 {
		return compute, err
	}
	if d.cor != nil && hit(in.memR, in.cfg.QFlipRate) {
		if n := d.cor.QWords(); n > 0 {
			w, b := in.memR.Intn(n), uint(in.memR.Intn(32))
			d.cor.CorruptQBit(w, b)
			in.stats.QFlips++
		}
	}
	if hit(in.busR, in.cfg.StallRate) {
		compute += in.cfg.StallCycles
		in.stats.Stalls++
	}
	if hit(in.busR, in.cfg.TimeoutRate) {
		compute += in.cfg.TimeoutCycles
		in.stats.Timeouts++
	}
	return compute, nil
}
