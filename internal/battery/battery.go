// Package battery models the mobile device's energy source, turning the
// simulator's joule counts into the quantity a user experiences: hours of
// battery life.
//
// The model is a cell with internal resistance: drawing power P at
// terminal voltage V forces current I = P/V through the cell's internal
// resistance R, dissipating an extra I²R — so heavy draws drain the
// battery disproportionately, the effect that makes sustained
// performance-governor gaming so costly on real devices. Life is computed
// from a full charge at the full-charge voltage.
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
	// FullV is the open-circuit voltage at full charge, where life is
	// computed.
	FullV float64
	// InternalOhm is the cell's internal resistance.
	InternalOhm float64
}

// DefaultSpec returns a typical modern phone cell: 4000 mAh, 4.35 V at
// full charge, 120 mΩ.
func DefaultSpec() Spec {
	return Spec{CapacityWh: 15.4, FullV: 4.35, InternalOhm: 0.120}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.CapacityWh <= 0 {
		return fmt.Errorf("battery: capacity must be positive, got %v Wh", s.CapacityWh)
	}
	if s.FullV <= 0 {
		return fmt.Errorf("battery: full-charge voltage must be positive, got %v V", s.FullV)
	}
	if s.InternalOhm < 0 {
		return fmt.Errorf("battery: negative internal resistance")
	}
	return nil
}

// LifeHours is how long a fully charged cell lasts at a constant average
// power, including the resistance loss at the full-charge voltage. The
// life is whole nanoseconds, as a time.Duration holds it.
func LifeHours(spec Spec, avgPowerW float64) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if avgPowerW <= 0 {
		return 0, fmt.Errorf("battery: runtime needs positive power, got %v", avgPowerW)
	}
	i := avgPowerW / spec.FullV
	seconds := spec.CapacityWh * 3600 / (avgPowerW + i*i*spec.InternalOhm)
	return time.Duration(seconds * float64(time.Second)).Hours(), nil
}
