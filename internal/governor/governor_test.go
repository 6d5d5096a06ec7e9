package governor

import (
	"testing"
	"testing/quick"

	"rlpm/internal/sim"
)

// obsWith builds a two-cluster observation pair with the default chip's
// OPP shapes.
func obsWith(util float64, level int) []sim.Observation {
	little := []float64{400e6, 600e6, 800e6, 1000e6, 1200e6, 1400e6, 1600e6, 1800e6}
	big := []float64{600e6, 800e6, 1000e6, 1200e6, 1400e6, 1600e6, 1800e6, 2000e6, 2300e6}
	mk := func(freqs []float64) sim.Observation {
		lvl := level
		if lvl >= len(freqs) {
			lvl = len(freqs) - 1
		}
		return sim.Observation{
			Utilization: util,
			Level:       lvl,
			NumLevels:   len(freqs),
			FreqsHz:     freqs,
			QoS:         1,
			PeriodS:     0.05,
		}
	}
	return []sim.Observation{mk(little), mk(big)}
}

func TestPerformanceAlwaysMax(t *testing.T) {
	g := NewPerformance()
	for _, util := range []float64{0, 0.5, 1} {
		levels := g.Decide(obsWith(util, 0))
		if levels[0] != 7 || levels[1] != 8 {
			t.Fatalf("util=%v: levels=%v", util, levels)
		}
	}
}

func TestPowersaveAlwaysMin(t *testing.T) {
	g := NewPowersave()
	levels := g.Decide(obsWith(1.0, 5))
	if levels[0] != 0 || levels[1] != 0 {
		t.Fatalf("levels=%v", levels)
	}
}

func TestUserspacePins(t *testing.T) {
	lo, err := NewUserspace(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lo.Decide(obsWith(0.9, 3)); got[0] != 0 || got[1] != 0 {
		t.Fatalf("fraction 0: %v", got)
	}
	hi, _ := NewUserspace(1)
	if got := hi.Decide(obsWith(0.1, 3)); got[0] != 7 || got[1] != 8 {
		t.Fatalf("fraction 1: %v", got)
	}
	mid, _ := NewUserspace(0.5)
	got := mid.Decide(obsWith(0.5, 3))
	if got[0] != 4 || got[1] != 4 {
		t.Fatalf("fraction 0.5: %v", got)
	}
}

func TestUserspaceValidation(t *testing.T) {
	for _, f := range []float64{-0.1, 1.1} {
		if _, err := NewUserspace(f); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
}

func TestOndemandJumpsToMaxOnHighLoad(t *testing.T) {
	g := NewOndemand()
	levels := g.Decide(obsWith(0.95, 2))
	if levels[0] != 7 || levels[1] != 8 {
		t.Fatalf("high load: %v", levels)
	}
}

func TestOndemandScalesDownProportionally(t *testing.T) {
	g := NewOndemand()
	// At level 7 (little: 1800 MHz) with util 0.2, target = 0.2*1800/0.8 =
	// 450 MHz → level 1 (600 MHz).
	obs := obsWith(0.2, 7)
	levels := g.Decide(obs)
	if levels[0] != 1 {
		t.Fatalf("little scaled to %d, want 1", levels[0])
	}
}

func TestOndemandIdleGoesToMin(t *testing.T) {
	g := NewOndemand()
	levels := g.Decide(obsWith(0, 5))
	if levels[0] != 0 || levels[1] != 0 {
		t.Fatalf("idle: %v", levels)
	}
}

func TestConservativeStepsUpAndDown(t *testing.T) {
	g := NewConservative()
	up := g.Decide(obsWith(0.9, 3))
	if up[0] != 4 || up[1] != 4 {
		t.Fatalf("step up: %v", up)
	}
	down := g.Decide(obsWith(0.1, 3))
	if down[0] != 2 || down[1] != 2 {
		t.Fatalf("step down: %v", down)
	}
	hold := g.Decide(obsWith(0.5, 3))
	if hold[0] != 3 || hold[1] != 3 {
		t.Fatalf("hold: %v", hold)
	}
}

func TestConservativeClampsAtEnds(t *testing.T) {
	g := NewConservative()
	if got := g.Decide(obsWith(0.9, 8)); got[1] != 8 {
		t.Fatalf("top clamp: %v", got)
	}
	if got := g.Decide(obsWith(0.05, 0)); got[0] != 0 {
		t.Fatalf("bottom clamp: %v", got)
	}
}

func TestInteractiveBurstsToHispeed(t *testing.T) {
	g := NewInteractive()
	levels := g.Decide(obsWith(0.9, 0))
	// hispeed_frac 0.75 of (8-1)=7 → 5 for little, of (9-1)=8 → 6 for big.
	if levels[0] != 5 || levels[1] != 6 {
		t.Fatalf("burst: %v", levels)
	}
}

func TestInteractiveHoldsBeforeDropping(t *testing.T) {
	g := NewInteractive()
	_ = g.Decide(obsWith(0.9, 0)) // jump to hispeed
	// Load vanishes; with min_sample_time 80 ms and 50 ms periods the
	// first low sample must hold, the second may drop.
	first := g.Decide(obsWith(0.0, 5))
	if first[0] != 5 {
		t.Fatalf("dropped during hold: %v", first)
	}
	second := g.Decide(obsWith(0.0, 5))
	if second[0] != 0 {
		t.Fatalf("did not drop after hold: %v", second)
	}
}

func TestInteractiveResetClearsHold(t *testing.T) {
	g := NewInteractive()
	_ = g.Decide(obsWith(0.9, 0))
	g.Reset()
	levels := g.Decide(obsWith(0.0, 0))
	if levels[0] != 0 {
		t.Fatalf("after reset: %v", levels)
	}
}

func TestSchedutilTracksInvariantUtil(t *testing.T) {
	g := NewSchedutil()
	// Full util at the top OPP stays at the top.
	top := g.Decide(obsWith(1.0, 8))
	if top[1] != 8 {
		t.Fatalf("full load top: %v", top)
	}
	// Idle goes to the bottom.
	idle := g.Decide(obsWith(0, 4))
	if idle[0] != 0 || idle[1] != 0 {
		t.Fatalf("idle: %v", idle)
	}
	// util 0.5 at little level 7 (1800 MHz): invariant util = 0.5,
	// target = 1.25*1800e6*0.5 = 1125 MHz → level 4 (1200 MHz).
	mid := g.Decide(obsWith(0.5, 7))
	if mid[0] != 4 {
		t.Fatalf("mid little: %v", mid)
	}
}

func TestRegistryKnowsAllBaselines(t *testing.T) {
	names := BaselineNames()
	if len(names) != 6 {
		t.Fatalf("baseline count = %d, want the paper's 6", len(names))
	}
	for _, n := range names {
		g, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if g.Name() != n {
			t.Fatalf("governor %q reports name %q", n, g.Name())
		}
	}
	if _, err := New("schedutil"); err != nil {
		t.Fatal("schedutil extension missing")
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown governor accepted")
	}
}

// Property: every governor returns one in-range level per cluster for any
// plausible observation.
func TestGovernorsReturnValidLevelsProperty(t *testing.T) {
	var govs []sim.Governor
	for _, n := range append(BaselineNames(), "schedutil") {
		g, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		govs = append(govs, g)
	}
	f := func(utilRaw uint16, levelRaw uint8, which uint8) bool {
		g := govs[int(which)%len(govs)]
		util := float64(utilRaw%1001) / 1000
		obs := obsWith(util, int(levelRaw%9))
		levels := g.Decide(obs)
		if len(levels) != len(obs) {
			return false
		}
		for i, lvl := range levels {
			if lvl < 0 || lvl >= obs[i].NumLevels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ondemand's chosen frequency is monotone in utilization.
func TestOndemandMonotoneProperty(t *testing.T) {
	g := NewOndemand()
	f := func(a, b uint16) bool {
		ua := float64(a%1001) / 1000
		ub := float64(b%1001) / 1000
		if ua > ub {
			ua, ub = ub, ua
		}
		la := g.Decide(obsWith(ua, 4))
		lb := g.Decide(obsWith(ub, 4))
		return la[0] <= lb[0] && la[1] <= lb[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOndemandDecide(b *testing.B) {
	g := NewOndemand()
	obs := obsWith(0.63, 4)
	for i := 0; i < b.N; i++ {
		g.Decide(obs)
	}
}

func BenchmarkInteractiveDecide(b *testing.B) {
	g := NewInteractive()
	obs := obsWith(0.63, 4)
	for i := 0; i < b.N; i++ {
		g.Decide(obs)
	}
}
