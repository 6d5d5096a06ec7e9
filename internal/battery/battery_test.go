package battery

import "testing"

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{CapacityWh: 0, FullV: 4.3, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: 0, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: -4.3, InternalOhm: 0.1},
		{CapacityWh: 15, FullV: 4.3, InternalOhm: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRuntime(t *testing.T) {
	life := func(powerW float64) float64 {
		t.Helper()
		h, err := LifeHours(DefaultSpec(), powerW)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// 15.4 Wh at ~2 W (plus small loss) ≈ 7.5 h.
	if h := life(2); h < 7 || h > 7.8 {
		t.Fatalf("runtime at 2W = %v h", h)
	}
	// I²R loss grows with the square of the current, so eight times the
	// load lasts less than an eighth as long.
	if h1, h8 := life(1), life(8); h8 >= h1/8 {
		t.Fatalf("runtime at 8W = %v h, want below %v h (an eighth of 1W's)", h8, h1/8)
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
