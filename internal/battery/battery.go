// Package battery models the mobile device's energy source, turning the
// simulator's joule counts into the quantity a user experiences: hours of
// battery life.
//
// The model is a cell with internal resistance: drawing power P at
// terminal voltage V forces current I = P/V through the cell's internal
// resistance R, dissipating an extra I²R — so heavy draws drain the
// battery disproportionately, the effect that makes sustained
// performance-governor gaming so costly on real devices. Terminal voltage
// sags linearly with depth of discharge between the full and empty knees.
package battery

import (
	"fmt"
	"time"
)

// Spec describes a cell.
type Spec struct {
	// CapacityWh is the nominal energy capacity (a 4000 mAh cell at a
	// 3.85 V nominal is 15.4 Wh).
	CapacityWh float64
	// FullV and EmptyV are the open-circuit voltages at 100% and 0%
	// state of charge.
	FullV  float64
	EmptyV float64
	// InternalOhm is the cell's internal resistance.
	InternalOhm float64
}

// DefaultSpec returns a typical modern phone cell: 4000 mAh, 4.35→3.40 V,
// 120 mΩ.
func DefaultSpec() Spec {
	return Spec{CapacityWh: 15.4, FullV: 4.35, EmptyV: 3.40, InternalOhm: 0.120}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.CapacityWh <= 0 {
		return fmt.Errorf("battery: capacity must be positive, got %v Wh", s.CapacityWh)
	}
	if s.FullV <= s.EmptyV || s.EmptyV <= 0 {
		return fmt.Errorf("battery: voltage knees must satisfy 0 < empty < full, got %v..%v", s.EmptyV, s.FullV)
	}
	if s.InternalOhm < 0 {
		return fmt.Errorf("battery: negative internal resistance")
	}
	return nil
}

// Battery is a cell and its remaining charge. Create with New.
type Battery struct {
	spec       Spec
	capacityJ  float64
	remainingJ float64
}

// New returns a fully charged battery.
func New(spec Spec) (*Battery, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	capJ := spec.CapacityWh * 3600
	return &Battery{spec: spec, capacityJ: capJ, remainingJ: capJ}, nil
}

// SoC returns the state of charge in [0,1].
func (b *Battery) SoC() float64 { return b.remainingJ / b.capacityJ }

// Voltage returns the current open-circuit terminal voltage (linear sag
// with depth of discharge).
func (b *Battery) Voltage() float64 {
	return b.spec.EmptyV + (b.spec.FullV-b.spec.EmptyV)*b.SoC()
}

// Runtime estimates how long the remaining charge lasts at a constant
// load of powerW (including resistance loss at the current voltage).
func (b *Battery) Runtime(powerW float64) (time.Duration, error) {
	if powerW <= 0 {
		return 0, fmt.Errorf("battery: runtime needs positive power, got %v", powerW)
	}
	v := b.Voltage()
	i := powerW / v
	total := powerW + i*i*b.spec.InternalOhm
	seconds := b.remainingJ / total
	return time.Duration(seconds * float64(time.Second)), nil
}

// LifeHours is a convenience: full-capacity life at a constant average
// power for the given cell spec.
func LifeHours(spec Spec, avgPowerW float64) (float64, error) {
	b, err := New(spec)
	if err != nil {
		return 0, err
	}
	d, err := b.Runtime(avgPowerW)
	if err != nil {
		return 0, err
	}
	return d.Hours(), nil
}
