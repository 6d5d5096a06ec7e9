// External test package so the differential tests can wire the injector
// against the real hwpolicy accelerator without an import cycle.
package fault_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rlpm/internal/bus"
	"rlpm/internal/fault"
	"rlpm/internal/governor"
	"rlpm/internal/hwpolicy"
	"rlpm/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := (fault.Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	bad := []fault.Config{
		{ReadErrorRate: -0.1},
		{ReadErrorRate: 1.1},
		{WriteErrorRate: 2},
		{ReadFlipRate: -1},
		{StallRate: 1.5},
		{TimeoutRate: math.Inf(1)},
		{QFlipRate: -0.01},
		{ObsStaleRate: 1.0001},
		{ObsDropRate: -0.5},
		{ObsNoiseCV: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
		if _, err := fault.NewInjector(c); err == nil {
			t.Errorf("NewInjector accepted bad config %d", i)
		}
	}
}

// driveSequence runs a fixed, deterministic decision sequence through a
// driver and returns the actions, per-decision latencies (as cycles via
// the bus clock), and the final table.
func driveSequence(t *testing.T, d *hwpolicy.Driver, steps int) ([]int, []float64, [][]float64) {
	t.Helper()
	if err := d.Configure(0.1, 0.9, 0.25, true); err != nil {
		t.Fatal(err)
	}
	p := d.Accel().Params()
	acts := make([]int, 0, steps)
	lats := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		state := (i * 7) % p.NumStates
		reward := math.Sin(float64(i)) // deterministic, sign-varying
		a, lat, err := d.Step(state, reward)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		acts = append(acts, a)
		lats = append(lats, lat.Seconds())
	}
	return acts, lats, d.Accel().Table()
}

// TestZeroRateDeviceTransparent is the differential guarantee the faults
// experiment's rate-0 rows rest on: a fault.Device with an all-zero
// config is byte-transparent — same actions, same latencies, same final
// Q table as the bare accelerator.
func TestZeroRateDeviceTransparent(t *testing.T) {
	params := hwpolicy.Params{NumStates: 32, NumActions: 5, Banks: 2, LFSRSeed: 0xACE1}
	const steps = 400

	bare, err := hwpolicy.New(params)
	if err != nil {
		t.Fatal(err)
	}
	plainDrv, err := hwpolicy.NewDriver(bus.DefaultConfig(), bare)
	if err != nil {
		t.Fatal(err)
	}
	wantActs, wantLats, wantTable := driveSequence(t, plainDrv, steps)

	inj, err := fault.NewInjector(fault.Config{Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := hwpolicy.New(params)
	if err != nil {
		t.Fatal(err)
	}
	dev := fault.NewDevice(wrapped, wrapped, inj)
	faultDrv, err := hwpolicy.NewDriverDevice(bus.DefaultConfig(), wrapped, dev)
	if err != nil {
		t.Fatal(err)
	}
	gotActs, gotLats, gotTable := driveSequence(t, faultDrv, steps)

	for i := range wantActs {
		if gotActs[i] != wantActs[i] {
			t.Fatalf("action %d diverged: %d != %d", i, gotActs[i], wantActs[i])
		}
		if gotLats[i] != wantLats[i] {
			t.Fatalf("latency %d diverged: %v != %v", i, gotLats[i], wantLats[i])
		}
	}
	for s := range wantTable {
		for a := range wantTable[s] {
			if gotTable[s][a] != wantTable[s][a] {
				t.Fatalf("Q[%d][%d] diverged: %v != %v", s, a, gotTable[s][a], wantTable[s][a])
			}
		}
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("zero-rate injector injected: %+v", inj.Stats())
	}
}

// TestInjectedErrorsAreSentinel pins that every fabricated transient
// error is errors.Is-distinguishable from genuine protocol errors.
func TestInjectedErrorsAreSentinel(t *testing.T) {
	accel, err := hwpolicy.New(hwpolicy.Params{NumStates: 4, NumActions: 2, Banks: 1, LFSRSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Config{Seed: 1, ReadErrorRate: 1, WriteErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev := fault.NewDevice(accel, accel, inj)
	if _, err := dev.ReadReg(hwpolicy.RegStatus); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("read error = %v, want ErrInjected", err)
	}
	if _, err := dev.WriteReg(hwpolicy.RegState, 0); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	st := inj.Stats()
	if st.ReadErrors != 1 || st.WriteErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

var testFreqs = []float64{4e8, 6e8, 8e8, 10e8, 12e8, 14e8, 16e8, 18e8, 20e8}

func obsPeriod(util float64) []sim.Observation {
	return []sim.Observation{
		{Utilization: util, DemandRatio: util * 1.2, QoS: 0.97, ClusterQoS: 0.95,
			EnergyJ: 0.5, ClusterEnergyJ: 0.3, TempC: 55,
			Level: 3, NumLevels: len(testFreqs), FreqsHz: testFreqs},
		{Utilization: util / 2, DemandRatio: util / 2, QoS: 0.97, ClusterQoS: 1,
			EnergyJ: 0.5, ClusterEnergyJ: 0.2, TempC: 48,
			Level: 1, NumLevels: len(testFreqs), FreqsHz: testFreqs},
	}
}

func TestObsFilterZeroRateTransparent(t *testing.T) {
	inj, _ := fault.NewInjector(fault.Config{Seed: 9})
	f := fault.NewObsFilter(inj)
	in := obsPeriod(0.8)
	out, flags := f.Apply(in)
	for i := range in {
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Fatalf("cluster %d perturbed: %+v != %+v", i, out[i], in[i])
		}
		if flags[i].Stale || flags[i].Dropped {
			t.Fatalf("cluster %d flagged: %+v", i, flags[i])
		}
	}
}

func TestObsFilterDrop(t *testing.T) {
	inj, _ := fault.NewInjector(fault.Config{Seed: 9, ObsDropRate: 1})
	f := fault.NewObsFilter(inj)

	// First period: no last-good sample yet — neutral idle telemetry.
	out, flags := f.Apply(obsPeriod(0.8))
	for i := range out {
		if !flags[i].Dropped {
			t.Fatalf("cluster %d not flagged dropped", i)
		}
		if out[i].Utilization != 0 || out[i].QoS != 1 {
			t.Fatalf("cluster %d not idle telemetry: %+v", i, out[i])
		}
		// Structural fields survive: the governor's own bookkeeping.
		if out[i].Level != obsPeriod(0.8)[i].Level || out[i].NumLevels != 9 {
			t.Fatalf("cluster %d structural fields perturbed: %+v", i, out[i])
		}
	}
	if got := inj.Stats().DroppedObs; got != 2 {
		t.Fatalf("DroppedObs = %d, want 2", got)
	}
}

func TestObsFilterStaleHoldsLastGood(t *testing.T) {
	// Rate 1 from the start: the filter never captures a good sample and
	// keeps re-delivering the neutral idle one — which pins both the
	// stale flag and "consecutive stales repeat the same aging sample".
	injStale, _ := fault.NewInjector(fault.Config{Seed: 9, ObsStaleRate: 1})
	fs := fault.NewObsFilter(injStale)
	for p := 0; p < 3; p++ {
		out, flags := fs.Apply(obsPeriod(0.3 + 0.2*float64(p)))
		for i := range out {
			if !flags[i].Stale || flags[i].Dropped {
				t.Fatalf("period %d cluster %d flags = %+v", p, i, flags[i])
			}
			if out[i].Utilization != 0 || out[i].QoS != 1 {
				t.Fatalf("period %d cluster %d not the held sample: %+v", p, i, out[i])
			}
		}
	}
	if got := injStale.Stats().StaleObs; got != 6 {
		t.Fatalf("StaleObs = %d, want 6", got)
	}
}

func TestObsFilterNoiseBounded(t *testing.T) {
	inj, _ := fault.NewInjector(fault.Config{Seed: 42, ObsNoiseCV: 0.5})
	f := fault.NewObsFilter(inj)
	perturbed := false
	for p := 0; p < 50; p++ {
		out, _ := f.Apply(obsPeriod(0.9))
		for i := range out {
			if out[i].Utilization < 0 || out[i].Utilization > 1 {
				t.Fatalf("utilization out of range: %v", out[i].Utilization)
			}
			if out[i].DemandRatio < 0 {
				t.Fatalf("negative demand: %v", out[i].DemandRatio)
			}
			if out[i].Utilization != obsPeriod(0.9)[i].Utilization {
				perturbed = true
			}
		}
	}
	if !perturbed {
		t.Fatal("noise at CV=0.5 never perturbed utilization")
	}
	if inj.Stats().NoisyObs == 0 {
		t.Fatal("NoisyObs not counted")
	}
}

// TestWrapTransparentAtZeroRate pins that baseline governors behind a
// rate-free filter decide identically to the bare governor.
func TestWrapTransparentAtZeroRate(t *testing.T) {
	inj, _ := fault.NewInjector(fault.Config{Seed: 3})
	bare := governor.NewOndemand()
	wrapped := fault.Wrap(governor.NewOndemand(), inj)
	if wrapped.Name() != bare.Name() {
		t.Fatalf("wrapper leaks into the name: %q", wrapped.Name())
	}
	for p := 0; p < 20; p++ {
		obs := obsPeriod(float64(p%10) / 10)
		got := wrapped.Decide(obs)
		want := bare.Decide(obs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("period %d cluster %d: %d != %d", p, i, got[i], want[i])
			}
		}
	}
}

// TestInjectorDeterminism pins that two injectors with the same seed
// deliver the same fault sequence.
func TestInjectorDeterminism(t *testing.T) {
	run := func() ([]int, fault.Stats) {
		accel, _ := hwpolicy.New(hwpolicy.Params{NumStates: 16, NumActions: 4, Banks: 2, LFSRSeed: 0xBEEF})
		inj, _ := fault.NewInjector(fault.Config{
			Seed: 77, ReadErrorRate: 0.2, ReadFlipRate: 0.2, WriteErrorRate: 0.1,
			StallRate: 0.3, QFlipRate: 0.5,
		})
		dev := fault.NewDevice(accel, accel, inj)
		drv, err := hwpolicy.NewDriverDevice(bus.DefaultConfig(), accel, dev)
		if err != nil {
			t.Fatal(err)
		}
		_ = drv.Configure(0.1, 0.9, 0.25, true)
		acts := make([]int, 0, 200)
		for i := 0; i < 200; i++ {
			a, _, err := drv.Step(i%16, 0.5)
			if err != nil {
				a = -1 // record faults in the trace too
			}
			acts = append(acts, a)
		}
		return acts, inj.Stats()
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v != %+v", s1, s2)
	}
	if s1.Total() == 0 {
		t.Fatal("no faults injected at these rates")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("action %d diverged: %d != %d", i, a1[i], a2[i])
		}
	}
}
