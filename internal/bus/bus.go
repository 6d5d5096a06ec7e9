// Package bus models the CPU↔accelerator communication interface the paper
// builds for its FPGA-implemented policy.
//
// The interface is an AXI-Lite-style memory-mapped register file: the CPU
// writes the encoded state (and reward fields) into device registers,
// strobes a doorbell, the accelerator runs, and the CPU reads the chosen
// action back. The model is transaction-accurate: every read and write
// costs a fixed number of bus-clock cycles (address + data + response
// phases), and the device can stall reads until its computation finishes —
// exactly the handshake the decision-latency experiment (Table 2) times.
package bus

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrDeviceTimeout is the sentinel wrapped by Read when a stalled device
// holds the bus past the configured watchdog bound. Drivers detect it with
// errors.Is and run their recovery path (Recover + retry/fallback).
var ErrDeviceTimeout = errors.New("bus: device timeout")

// Device is the accelerator side of the interface: a register file plus a
// compute hook. Read/Write work in register words; Busy cycles model
// compute time that gates result reads.
type Device interface {
	// ReadReg returns the value of register addr.
	ReadReg(addr uint32) (uint32, error)
	// WriteReg stores val into register addr. Writing a doorbell register
	// may start computation; the device returns how many device-clock
	// cycles that computation takes (0 for plain stores).
	WriteReg(addr, val uint32) (computeCycles uint64, err error)
}

// Config describes the interconnect timing.
type Config struct {
	// BusClockHz is the interconnect clock (e.g. 200 MHz AXI-Lite).
	BusClockHz float64
	// DeviceClockHz is the accelerator's clock (e.g. 100 MHz fabric).
	DeviceClockHz float64
	// WriteCycles is the bus-clock cost of one posted write
	// (address+data accept).
	WriteCycles uint64
	// ReadCycles is the bus-clock cost of one read round trip
	// (address, data, response).
	ReadCycles uint64
	// WatchdogCycles bounds the read-stall (bus clock) a master will
	// tolerate while the device is busy. A read that would stall longer
	// charges exactly WatchdogCycles + ReadCycles and fails with
	// ErrDeviceTimeout; the device stays busy until Recover is called.
	// 0 disables the watchdog (reads stall indefinitely, the pre-fault
	// behaviour).
	WatchdogCycles uint64
}

// DefaultConfig returns the timing used in the evaluation: a 200 MHz
// AXI-Lite port (4-cycle writes, 6-cycle read round trips) in front of a
// 100 MHz fabric — conservative numbers for a Zynq-class FPGA platform.
func DefaultConfig() Config {
	return Config{
		BusClockHz:    200e6,
		DeviceClockHz: 100e6,
		WriteCycles:   4,
		ReadCycles:    6,
	}
}

// Validate checks the config. Clocks must be positive finite frequencies
// (NaN and ±Inf would silently turn every transaction cost into NaN or
// zero latency) and both transaction costs must be at least one cycle.
func (c Config) Validate() error {
	if !(c.BusClockHz > 0) || math.IsInf(c.BusClockHz, 0) {
		return fmt.Errorf("bus: bus clock must be positive and finite, got %v", c.BusClockHz)
	}
	if !(c.DeviceClockHz > 0) || math.IsInf(c.DeviceClockHz, 0) {
		return fmt.Errorf("bus: device clock must be positive and finite, got %v", c.DeviceClockHz)
	}
	if c.WriteCycles == 0 || c.ReadCycles == 0 {
		return fmt.Errorf("bus: transaction costs must be at least one cycle")
	}
	return nil
}

// Bus connects a master (the CPU-side driver) to one Device and accounts
// for elapsed time. It is transaction-accurate, not signal-accurate: each
// operation advances the wall clock by its full cost.
type Bus struct {
	cfg Config
	dev Device

	// busyUntil is the absolute time (seconds) the device's current
	// computation finishes; reads issued before then stall.
	busyUntil float64
	nowS      float64

	reads, writes, stallCycles uint64
	timeouts, recoveries       uint64
}

// New creates a bus in front of dev.
func New(cfg Config, dev Device) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, fmt.Errorf("bus: nil device")
	}
	return &Bus{cfg: cfg, dev: dev}, nil
}

// Config returns the interconnect timing configuration.
func (b *Bus) Config() Config { return b.cfg }

// Now returns the bus's current absolute time as a duration.
func (b *Bus) Now() time.Duration { return time.Duration(b.nowS * float64(time.Second)) }

// Stats reports transaction counts and total read-stall cycles (bus clock).
func (b *Bus) Stats() (reads, writes, stallCycles uint64) {
	return b.reads, b.writes, b.stallCycles
}

// Write posts one register write. Posted writes complete in WriteCycles of
// bus clock; if the write triggers computation, the device becomes busy
// for the returned device-clock cycles starting when the write lands.
func (b *Bus) Write(addr, val uint32) error {
	b.nowS += float64(b.cfg.WriteCycles) / b.cfg.BusClockHz
	compute, err := b.dev.WriteReg(addr, val)
	if err != nil {
		return fmt.Errorf("bus: write %#x: %w", addr, err)
	}
	b.writes++
	if compute > 0 {
		finish := b.nowS + float64(compute)/b.cfg.DeviceClockHz
		if finish > b.busyUntil {
			b.busyUntil = finish
		}
	}
	return nil
}

// Read performs one register read round trip, stalling until any pending
// computation has finished (result registers are not valid earlier). With
// a watchdog configured, a stall longer than WatchdogCycles is abandoned:
// the read charges the watchdog bound plus the round trip and fails with
// an error wrapping ErrDeviceTimeout. The device remains busy — the
// master must Recover (modeling a device reset line) before retrying.
func (b *Bus) Read(addr uint32) (uint32, error) {
	if b.busyUntil > b.nowS {
		stallS := b.busyUntil - b.nowS
		stall := uint64(stallS*b.cfg.BusClockHz + 0.5)
		if b.cfg.WatchdogCycles > 0 && stall > b.cfg.WatchdogCycles {
			b.stallCycles += b.cfg.WatchdogCycles
			b.nowS += (float64(b.cfg.WatchdogCycles) + float64(b.cfg.ReadCycles)) / b.cfg.BusClockHz
			b.timeouts++
			return 0, fmt.Errorf("bus: read %#x: stalled %d cycles past watchdog %d: %w",
				addr, stall, b.cfg.WatchdogCycles, ErrDeviceTimeout)
		}
		b.stallCycles += stall
		b.nowS = b.busyUntil
	}
	b.nowS += float64(b.cfg.ReadCycles) / b.cfg.BusClockHz
	v, err := b.dev.ReadReg(addr)
	if err != nil {
		return 0, fmt.Errorf("bus: read %#x: %w", addr, err)
	}
	b.reads++
	return v, nil
}

// Timeouts reports how many reads the watchdog abandoned.
func (b *Bus) Timeouts() uint64 { return b.timeouts }

// Recover models the master pulsing the device reset/abort line: whatever
// computation wedged the device is abandoned and result reads no longer
// stall on it. Register contents are untouched (a driver that needs a
// clean device state issues its own control-register reset afterwards).
func (b *Bus) Recover() {
	if b.busyUntil > b.nowS {
		b.busyUntil = b.nowS
	}
	b.recoveries++
}

// Idle burns cycles of bus clock without issuing a transaction — the
// driver-side backoff delay between retries of a failed transaction.
func (b *Bus) Idle(cycles uint64) {
	b.nowS += float64(cycles) / b.cfg.BusClockHz
}

// ResetClock rewinds the wall clock and statistics without touching the
// device — used between timed transactions when measuring per-decision
// latency.
func (b *Bus) ResetClock() {
	b.nowS = 0
	b.busyUntil = 0
	b.reads, b.writes, b.stallCycles = 0, 0, 0
	b.timeouts, b.recoveries = 0, 0
}
