package hwpolicy

import (
	"fmt"
	"time"

	"rlpm/internal/bus"
	"rlpm/internal/fixed"
)

// MultiAccel is the multi-channel accelerator: one Q-learning channel per
// DVFS domain behind a single register file, so the CPU makes all domains'
// decisions in one MMIO conversation instead of one per domain. This is
// the natural next step of the paper's hardware design once the chip has
// more than one DVFS domain — amortizing the bus round trips that dominate
// the single-channel transaction.
//
// Register map: channel c's registers live at base c*ChannelStride using
// the same offsets as the single-channel Accel; a global control register
// at GlobalCtrl steps every channel at once, and the per-channel action
// registers are read back individually (reads are cheap once the compute
// has drained).
type MultiAccel struct {
	channels []*Accel
}

// ChannelStride is the register-address stride between channels.
const ChannelStride uint32 = 0x100

// GlobalCtrl is the all-channel doorbell register.
const GlobalCtrl uint32 = 0xF00

// NewMulti builds a multi-channel accelerator. Channels may be sized
// differently (the LITTLE, big and GPU domains have different OPP counts).
func NewMulti(params []Params) (*MultiAccel, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("hwpolicy: multi-channel accelerator needs at least one channel")
	}
	m := &MultiAccel{}
	for i, p := range params {
		a, err := New(p)
		if err != nil {
			return nil, fmt.Errorf("hwpolicy: channel %d: %w", i, err)
		}
		m.channels = append(m.channels, a)
	}
	return m, nil
}

// decode splits a global address into (channel, offset).
func (m *MultiAccel) decode(addr uint32) (int, uint32, error) {
	ch := int(addr / ChannelStride)
	if ch >= len(m.channels) {
		return 0, 0, fmt.Errorf("hwpolicy: address %#x beyond channel %d: %w", addr, len(m.channels)-1, ErrBadRegister)
	}
	return ch, addr % ChannelStride, nil
}

// ReadReg implements bus.Device.
func (m *MultiAccel) ReadReg(addr uint32) (uint32, error) {
	if addr == GlobalCtrl {
		return 0, nil
	}
	ch, off, err := m.decode(addr)
	if err != nil {
		return 0, err
	}
	return m.channels[ch].ReadReg(off)
}

// WriteReg implements bus.Device. Writing CtrlStep to GlobalCtrl steps
// every channel; because the channels are independent datapaths they run
// in parallel, so the compute cost is the maximum channel latency, not
// the sum.
func (m *MultiAccel) WriteReg(addr, val uint32) (uint64, error) {
	if addr == GlobalCtrl {
		if val != CtrlStep {
			return 0, fmt.Errorf("hwpolicy: global control only accepts step, got %#x: %w", val, ErrBadCommand)
		}
		var maxCycles uint64
		for i, ch := range m.channels {
			c, err := ch.WriteReg(RegCtrl, CtrlStep)
			if err != nil {
				return 0, fmt.Errorf("hwpolicy: stepping channel %d: %w", i, err)
			}
			if c > maxCycles {
				maxCycles = c
			}
		}
		return maxCycles, nil
	}
	ch, off, err := m.decode(addr)
	if err != nil {
		return 0, err
	}
	return m.channels[ch].WriteReg(off, val)
}

// MultiDriver is the CPU-side driver for the multi-channel accelerator.
type MultiDriver struct {
	bus   *bus.Bus
	accel *MultiAccel
}

// NewMultiDriver wires the multi-channel accelerator behind a bus.
func NewMultiDriver(cfg bus.Config, accel *MultiAccel) (*MultiDriver, error) {
	if accel == nil {
		return nil, fmt.Errorf("hwpolicy: nil accelerator")
	}
	b, err := bus.New(cfg, accel)
	if err != nil {
		return nil, err
	}
	return &MultiDriver{bus: b, accel: accel}, nil
}

// Accel returns the device.
func (d *MultiDriver) Accel() *MultiAccel { return d.accel }

// Bus returns the underlying bus.
func (d *MultiDriver) Bus() *bus.Bus { return d.bus }

// Configure programs every channel's learning parameters.
func (d *MultiDriver) Configure(alpha, gamma, epsilon float64, learn bool) error {
	for c := range d.accel.channels {
		base := uint32(c) * ChannelStride
		writes := []struct {
			reg uint32
			val uint32
		}{
			{base + RegAlpha, uint32(fixed.FromFloat(alpha).Raw())},
			{base + RegGamma, uint32(fixed.FromFloat(gamma).Raw())},
			{base + RegEpsilon, uint32(fixed.FromFloat(epsilon).Raw())},
			{base + RegLearn, boolBit(learn)},
		}
		for _, w := range writes {
			if err := d.bus.Write(w.reg, w.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// StepAll runs one decision for every channel in a single conversation:
// per-channel state and reward writes, one global doorbell, per-channel
// action reads. Returns the actions and the total transaction latency.
func (d *MultiDriver) StepAll(states []int, rewards []float64) ([]int, time.Duration, error) {
	n := len(d.accel.channels)
	if len(states) != n || len(rewards) != n {
		return nil, 0, fmt.Errorf("hwpolicy: %d states / %d rewards for %d channels", len(states), len(rewards), n)
	}
	start := d.bus.Now()
	for c := 0; c < n; c++ {
		if states[c] < 0 || states[c] >= d.accel.channels[c].Params().NumStates {
			return nil, 0, fmt.Errorf("hwpolicy: channel %d state %d out of range: %w", c, states[c], ErrOutOfRange)
		}
		base := uint32(c) * ChannelStride
		if err := d.bus.Write(base+RegState, uint32(states[c])); err != nil {
			return nil, 0, err
		}
		if err := d.bus.Write(base+RegReward, uint32(fixed.FromFloat(rewards[c]).Raw())); err != nil {
			return nil, 0, err
		}
	}
	if err := d.bus.Write(GlobalCtrl, CtrlStep); err != nil {
		return nil, 0, err
	}
	actions := make([]int, n)
	for c := 0; c < n; c++ {
		base := uint32(c) * ChannelStride
		act, err := d.bus.Read(base + RegAction)
		if err != nil {
			return nil, 0, err
		}
		actions[c] = int(act)
	}
	return actions, d.bus.Now() - start, nil
}
