package battery

import "testing"

func newBattery(t *testing.T) *Battery {
	t.Helper()
	b, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{CapacityWh: 0, FullV: 4.3, EmptyV: 3.4, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: 3.4, EmptyV: 3.4, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: 4.3, EmptyV: 0, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: 4.3, EmptyV: 3.4, InternalOhm: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestFreshBatteryState(t *testing.T) {
	b := newBattery(t)
	if b.SoC() != 1 {
		t.Fatalf("SoC = %v", b.SoC())
	}
	if b.Voltage() != DefaultSpec().FullV {
		t.Fatalf("Voltage = %v", b.Voltage())
	}
}

func TestRuntime(t *testing.T) {
	b := newBattery(t)
	d, err := b.Runtime(2)
	if err != nil {
		t.Fatal(err)
	}
	// 15.4 Wh at ~2 W (plus small loss) ≈ 7.5 h.
	if d.Hours() < 7 || d.Hours() > 7.8 {
		t.Fatalf("runtime at 2W = %v h", d.Hours())
	}
	// I²R loss grows with the square of the current, so eight times the
	// load lasts less than an eighth as long.
	d1, err := b.Runtime(1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := b.Runtime(8)
	if err != nil {
		t.Fatal(err)
	}
	if d8 >= d1/8 {
		t.Fatalf("runtime at 8W = %v, want below %v (an eighth of 1W's)", d8, d1/8)
	}
	if _, err := b.Runtime(0); err == nil {
		t.Fatal("zero power accepted")
	}
}

func TestLifeHours(t *testing.T) {
	h, err := LifeHours(DefaultSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if h < 4.5 || h > 5.2 {
		t.Fatalf("LifeHours(3W) = %v", h)
	}
	if _, err := LifeHours(Spec{}, 3); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := LifeHours(DefaultSpec(), 0); err == nil {
		t.Fatal("zero power accepted")
	}
}
