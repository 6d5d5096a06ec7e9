package hwpolicy

import (
	"errors"
	"testing"

	"rlpm/internal/bus"
	"rlpm/internal/core"
	"rlpm/internal/fault"
	"rlpm/internal/sim"
)

var resFreqs = []float64{4e8, 6e8, 8e8, 10e8, 12e8, 14e8, 16e8, 18e8, 20e8}

// resObs synthesizes one period of two-cluster telemetry, deterministic in
// the period index so differential runs see identical inputs.
func resObs(period int) []sim.Observation {
	u := 0.15 + 0.7*float64(period%10)/10
	return []sim.Observation{
		{Utilization: u, DemandRatio: u * 1.1, QoS: 0.96, ClusterQoS: 0.95,
			EnergyJ: 0.4, ClusterEnergyJ: 0.25, TempC: 50 + u*20,
			Level: period % len(resFreqs), NumLevels: len(resFreqs), FreqsHz: resFreqs},
		{Utilization: 1 - u, DemandRatio: (1 - u) * 0.9, QoS: 0.96, ClusterQoS: 1,
			EnergyJ: 0.4, ClusterEnergyJ: 0.15, TempC: 45,
			Level: (period + 3) % len(resFreqs), NumLevels: len(resFreqs), FreqsHz: resFreqs},
	}
}

// frozenPolicy returns a software policy driven long enough to have
// non-trivial tables, then frozen — the deployment artifact both the plain
// and resilient hardware governors are loaded from.
func frozenPolicy(t *testing.T) *core.Policy {
	t.Helper()
	p, err := core.NewPolicy(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p.Decide(resObs(i))
	}
	p.SetLearning(false)
	return p
}

// TestResilientMatchesPlainHWWithoutFaults is the differential acceptance
// check: with a nil injector the resilient stack decides identically to
// the plain hardware governor deployed from the same policy.
func TestResilientMatchesPlainHWWithoutFaults(t *testing.T) {
	p := frozenPolicy(t)

	plain, err := FromPolicy(p, core.DefaultConfig(), bus.DefaultConfig(), DefaultParams().Banks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResilient(p, DefaultResilientConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const periods = 150
	for i := 0; i < periods; i++ {
		obs := resObs(i)
		want := plain.Decide(obs)
		got := res.Decide(obs)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("period %d cluster %d: resilient %d != plain %d", i, c, got[c], want[c])
			}
		}
	}
	st := res.Stats()
	if res.rung != 0 || st.HWFaults != 0 || st.Demotions != 0 || st.Retries != 0 {
		t.Fatalf("fault-free run dirtied the ladder: rung=%d stats=%+v", res.rung, st)
	}
	if st.Decisions != periods || st.PeriodsHW != periods {
		t.Fatalf("period accounting off: %+v", st)
	}
	if st.TotalLat <= 0 {
		t.Fatal("no hardware latency accounted")
	}
}

// TestLadderDemotesToSoftwareUnderBusFaults wedges every register read:
// the hardware path fails all retries each period, the ladder demotes to
// the software policy after DemoteAfter periods, and the probes (reads
// through the same dead bus) keep it there.
func TestLadderDemotesToSoftwareUnderBusFaults(t *testing.T) {
	p := frozenPolicy(t)
	inj, err := fault.NewInjector(fault.Config{Seed: 5, ReadErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilientConfig()
	res, err := NewResilient(p, rc, inj)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < rc.DemoteAfter+10; i++ {
		out := res.Decide(resObs(i))
		for c, a := range out {
			if a < 0 || a >= len(resFreqs) {
				t.Fatalf("period %d cluster %d: action %d out of range", i, c, a)
			}
		}
	}
	if res.rung != 1 {
		t.Fatalf("rung = %d, want 1 (software policy)", res.rung)
	}
	st := res.Stats()
	if st.Demotions != 1 || st.HWFaults == 0 || st.Retries == 0 {
		t.Fatalf("ladder stats = %+v", st)
	}
	if st.PeriodsSW == 0 {
		t.Fatalf("no software periods after demotion: %+v", st)
	}
}

// TestLadderDemotesToOndemandOnTelemetryStarvation drops every telemetry
// read: both RL rungs are starved of state, so the ladder falls through to
// ondemand and stays there while the drops persist.
func TestLadderDemotesToOndemandOnTelemetryStarvation(t *testing.T) {
	p := frozenPolicy(t)
	inj, err := fault.NewInjector(fault.Config{Seed: 5, ObsDropRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilientConfig()
	res, err := NewResilient(p, rc, inj)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2*rc.DemoteAfter+10; i++ {
		out := res.Decide(resObs(i))
		if len(out) != 2 {
			t.Fatalf("period %d: %d actions", i, len(out))
		}
	}
	if res.rung != 2 {
		t.Fatalf("rung = %d, want 2 (ondemand)", res.rung)
	}
	st := res.Stats()
	if st.Demotions != 2 {
		t.Fatalf("demotions = %d, want 2", st.Demotions)
	}
	if st.TelemetryFaults == 0 || st.PeriodsOD == 0 {
		t.Fatalf("ladder stats = %+v", st)
	}
}

// TestLadderPromotesAfterProbation forces the stack onto the software rung
// with healthy hardware underneath: PromoteAfter consecutive clean probes
// must re-promote to the hardware rung.
func TestLadderPromotesAfterProbation(t *testing.T) {
	p := frozenPolicy(t)
	rc := DefaultResilientConfig()
	res, err := NewResilient(p, rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Decide(resObs(0)) // bring the hardware up
	res.rung = 1          // as if a transient burst had demoted us

	i := 1
	for ; res.rung != 0 && i < rc.PromoteAfter+5; i++ {
		res.Decide(resObs(i))
	}
	if res.rung != 0 {
		t.Fatalf("never promoted back to hardware (rung %d after %d periods)", res.rung, i)
	}
	if got := res.Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	// Probation length is exact: PromoteAfter clean probes, no fewer.
	if i-1 != rc.PromoteAfter {
		t.Fatalf("promoted after %d periods, want %d", i-1, rc.PromoteAfter)
	}
}

// TestResilientSurvivesWedgedDevice pins the no-unbounded-stall guarantee:
// a device that wedges on every decision costs at most
// watchdog × (Retries+1) per period, and the run completes demoted.
func TestResilientSurvivesWedgedDevice(t *testing.T) {
	p := frozenPolicy(t)
	inj, err := fault.NewInjector(fault.Config{Seed: 11, TimeoutRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilientConfig()
	res, err := NewResilient(p, rc, inj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res.Decide(resObs(i))
	}
	if res.rung == 0 {
		t.Fatalf("still on hardware rung after persistent wedges: %+v", res.Stats())
	}
	if inj.Stats().Timeouts == 0 {
		t.Fatal("no wedges injected")
	}
	for _, d := range res.Drivers() {
		if d.Bus().Timeouts() == 0 {
			t.Fatal("watchdog never fired on the wedged bus")
		}
	}
}

// TestSentinelErrors pins the errors.Is chain from accelerator through bus
// and driver — the contract the retry/degradation logic keys on.
func TestSentinelErrors(t *testing.T) {
	accel, err := New(Params{NumStates: 8, NumActions: 3, Banks: 1, LFSRSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := accel.ReadReg(0xFF); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("bad read register error = %v, want ErrBadRegister", err)
	}
	if _, err := accel.WriteReg(0xFF, 0); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("bad write register error = %v, want ErrBadRegister", err)
	}
	if _, err := accel.WriteReg(RegCtrl, 0xAB); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("bad command error = %v, want ErrBadCommand", err)
	}
	if _, err := accel.WriteReg(RegState, 99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range state error = %v, want ErrOutOfRange", err)
	}

	d, err := NewDriver(bus.DefaultConfig(), accel)
	if err != nil {
		t.Fatal(err)
	}
	// Sentinels survive the bus wrapping.
	if _, err := d.Bus().Read(0xFF); !errors.Is(err, ErrBadRegister) {
		t.Fatalf("bus-wrapped error = %v, want ErrBadRegister", err)
	}
	if _, _, err := d.Step(-1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("driver state range error = %v, want ErrOutOfRange", err)
	}
	if _, _, err := d.Step(8, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("driver state range error = %v, want ErrOutOfRange", err)
	}

	// A wedged device surfaces the bus timeout sentinel through Step.
	inj, err := fault.NewInjector(fault.Config{Seed: 2, TimeoutRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bus.DefaultConfig()
	cfg.WatchdogCycles = 1024
	wd, err := NewDriverDevice(cfg, accel, fault.NewDevice(accel, accel, inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wd.Step(0, 0); !errors.Is(err, bus.ErrDeviceTimeout) {
		t.Fatalf("wedged step error = %v, want bus.ErrDeviceTimeout", err)
	}
}

// TestParityScrubRecovers pins the Scrub path end to end: a corrupted Q
// word is detected on fetch, zeroed, and counted — and decisions keep
// coming from sane values instead of the corrupted one.
func TestParityScrubRecovers(t *testing.T) {
	accel, err := New(Params{NumStates: 4, NumActions: 3, Banks: 1, LFSRSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	accel.EnableParity(true)
	table := [][]float64{
		{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {1, 3, 2},
	}
	loadTable(accel, table)
	// SEU on word 0 (state 0, action 0): flip the sign bit so the
	// corrupted value would win or lose the argmax wildly.
	accel.CorruptQBit(0, 31)

	d, err := NewDriver(bus.DefaultConfig(), accel)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(0.2, 0.85, 0, false); err != nil {
		t.Fatal(err)
	}
	act, _, err := d.Step(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if accel.Scrubs() != 1 {
		t.Fatalf("scrubs = %d, want 1", accel.Scrubs())
	}
	// Post-scrub row is {0, 2, 3}: argmax is action 2, as if the SEU
	// never steered the decision.
	if act != 2 {
		t.Fatalf("action after scrub = %d, want 2", act)
	}
	if got := accelTable(accel)[0][0]; got != 0 {
		t.Fatalf("corrupted word not scrubbed: %v", got)
	}
}

// TestResilientReset pins that Reset returns the stack to the hardware
// rung with a fresh upload from the retained snapshot.
func TestResilientReset(t *testing.T) {
	p := frozenPolicy(t)
	inj, err := fault.NewInjector(fault.Config{Seed: 5, ReadErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilientConfig()
	res, err := NewResilient(p, rc, inj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rc.DemoteAfter+2; i++ {
		res.Decide(resObs(i))
	}
	if res.rung == 0 {
		t.Fatal("precondition: expected a demotion")
	}
	res.Reset()
	if res.rung != 0 || res.Stats() != (ResilientStats{}) {
		t.Fatalf("reset left state behind: rung=%d stats=%+v", res.rung, res.Stats())
	}
	out := res.Decide(resObs(0))
	if len(out) != 2 {
		t.Fatalf("decide after reset returned %d actions", len(out))
	}
}

// TestResilientLadderDemotesAndPromotes forces a demotion and a promotion: a
// stack whose every accelerator read faults steps down to the software
// rung, and a healthy stack pushed onto the software rung re-promotes to
// hardware after probation. Each transition is counted in Stats.
func TestResilientLadderDemotesAndPromotes(t *testing.T) {
	inj, err := fault.NewInjector(fault.Config{Seed: 5, ReadErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewResilient(frozenPolicy(t), DefaultResilientConfig(), inj)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultResilientConfig()
	for i := 0; i < rc.DemoteAfter+10; i++ {
		faulty.Decide(resObs(i))
	}
	if faulty.rung != 1 {
		t.Fatalf("rung %d, want 1", faulty.rung)
	}
	if st := faulty.Stats(); st.Demotions != 1 || st.Promotions != 0 {
		t.Fatalf("demotions %d, promotions %d; want 1, 0", st.Demotions, st.Promotions)
	}

	// Promotion: healthy stack pushed onto the software rung re-promotes
	// after probation.
	res, err := NewResilient(frozenPolicy(t), DefaultResilientConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res.rung = 1
	for i := 0; i < 3*DefaultResilientConfig().PromoteAfter+10 && res.rung != 0; i++ {
		res.Decide(resObs(i))
	}
	if res.rung != 0 {
		t.Fatal("never promoted back to hardware")
	}
	if st := res.Stats(); st.Promotions != 1 {
		t.Fatalf("promotions %d, want 1", st.Promotions)
	}
}
