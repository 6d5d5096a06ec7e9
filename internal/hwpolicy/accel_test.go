package hwpolicy

import (
	"testing"
	"testing/quick"

	"rlpm/internal/bus"
	"rlpm/internal/fixed"
)

func smallParams() Params {
	return Params{NumStates: 12, NumActions: 5, Banks: 1, LFSRSeed: 0xACE1}
}

func newAccel(t *testing.T, p Params) *Accel {
	t.Helper()
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{NumStates: 0, NumActions: 1, Banks: 1, LFSRSeed: 1},
		{NumStates: 1, NumActions: 0, Banks: 1, LFSRSeed: 1},
		{NumStates: 1, NumActions: 65, Banks: 1, LFSRSeed: 1},
		{NumStates: 1, NumActions: 1, Banks: 0, LFSRSeed: 1},
		{NumStates: 1, NumActions: 1, Banks: 1, LFSRSeed: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestRegisterFileReadWrite(t *testing.T) {
	a := newAccel(t, smallParams())
	cases := []struct {
		reg uint32
		val uint32
	}{
		{RegState, 7},
		{RegReward, uint32(fixed.FromFloat(-1.5).Raw())},
		{RegAlpha, uint32(fixed.FromFloat(0.25).Raw())},
		{RegGamma, uint32(fixed.FromFloat(0.9).Raw())},
		{RegEpsilon, uint32(fixed.FromFloat(0.1).Raw())},
		{RegQAddr, 11},
		{RegLearn, 0},
	}
	for _, c := range cases {
		if _, err := a.WriteReg(c.reg, c.val); err != nil {
			t.Fatalf("write %#x: %v", c.reg, err)
		}
		got, err := a.ReadReg(c.reg)
		if err != nil {
			t.Fatalf("read %#x: %v", c.reg, err)
		}
		if got != c.val {
			t.Fatalf("reg %#x = %#x, want %#x", c.reg, got, c.val)
		}
	}
}

func TestRegisterFileErrors(t *testing.T) {
	a := newAccel(t, smallParams())
	if _, err := a.WriteReg(RegState, 99); err == nil {
		t.Error("out-of-range state accepted")
	}
	if _, err := a.WriteReg(RegQAddr, 999); err == nil {
		t.Error("out-of-range Q address accepted")
	}
	if _, err := a.WriteReg(RegAction, 1); err == nil {
		t.Error("write to read-only action register accepted")
	}
	if _, err := a.WriteReg(RegStatus, 1); err == nil {
		t.Error("write to read-only status register accepted")
	}
	if _, err := a.WriteReg(0x40, 1); err == nil {
		t.Error("unmapped write accepted")
	}
	if _, err := a.ReadReg(0x40); err == nil {
		t.Error("unmapped read accepted")
	}
	if _, err := a.WriteReg(RegCtrl, 0xbeef); err == nil {
		t.Error("unknown control command accepted")
	}
}

func TestQPortRoundTrip(t *testing.T) {
	a := newAccel(t, smallParams())
	want := fixed.FromFloat(2.5)
	if _, err := a.WriteReg(RegQAddr, 13); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteReg(RegQData, uint32(want.Raw())); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadReg(RegQData)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.FromRaw(int32(got)) != want {
		t.Fatalf("QData = %v, want %v", fixed.FromRaw(int32(got)), want)
	}
}

func TestStepCycles(t *testing.T) {
	// 9 actions over 4 banks: fetch ceil(9/4)=3, tree ceil(log2 9)=4,
	// mac 3, wb 1, sel 1 → 12 cycles.
	a := newAccel(t, DefaultParams())
	if got := a.StepCycles(); got != 12 {
		t.Fatalf("StepCycles = %d, want 12", got)
	}
	// 5 actions, 1 bank: 5 + 3 + 3 + 1 + 1 = 13.
	b := newAccel(t, smallParams())
	if got := b.StepCycles(); got != 13 {
		t.Fatalf("StepCycles small = %d, want 13", got)
	}
}

func TestGreedyStepMatchesArgmax(t *testing.T) {
	a := newAccel(t, smallParams())
	// Load a table where state 3's best action is 2.
	table := make([][]float64, 12)
	for s := range table {
		table[s] = make([]float64, 5)
	}
	table[3] = []float64{-1, 0.5, 2.0, 1.9, -3}
	if err := a.LoadTable(table); err != nil {
		t.Fatal(err)
	}
	_, _ = a.WriteReg(RegLearn, 0) // inference only
	_, _ = a.WriteReg(RegState, 3)
	if _, err := a.WriteReg(RegCtrl, CtrlStep); err != nil {
		t.Fatal(err)
	}
	act, _ := a.ReadReg(RegAction)
	if act != 2 {
		t.Fatalf("action = %d, want 2", act)
	}
	st, _ := a.ReadReg(RegStatus)
	if st&StatusDone == 0 {
		t.Fatal("done bit not set")
	}
}

func TestUpdateMatchesFixedPointReference(t *testing.T) {
	// The hardware Q-update must be bit-exact with the fixed-point
	// formula Q' = Q + α·((r + γ·max) − Q) computed with internal/fixed.
	p := smallParams()
	a := newAccel(t, p)
	alpha, gamma := fixed.FromFloat(0.25), fixed.FromFloat(0.5)
	_, _ = a.WriteReg(RegAlpha, uint32(alpha.Raw()))
	_, _ = a.WriteReg(RegGamma, uint32(gamma.Raw()))
	_, _ = a.WriteReg(RegEpsilon, 0)

	// Step 1: state 0, establishes prev=(0, argmax row0 = 0).
	_, _ = a.WriteReg(RegState, 0)
	_, _ = a.WriteReg(RegReward, 0)
	_, _ = a.WriteReg(RegCtrl, CtrlStep)

	// Seed state 1's row so its max is known.
	_, _ = a.WriteReg(RegQAddr, uint32(1*p.NumActions+3))
	maxQ := fixed.FromFloat(1.75)
	_, _ = a.WriteReg(RegQData, uint32(maxQ.Raw()))

	// Step 2: state 1 with reward −0.5 updates Q[0][0].
	reward := fixed.FromFloat(-0.5)
	_, _ = a.WriteReg(RegState, 1)
	_, _ = a.WriteReg(RegReward, uint32(reward.Raw()))
	_, _ = a.WriteReg(RegCtrl, CtrlStep)

	_, _ = a.WriteReg(RegQAddr, 0)
	got, _ := a.ReadReg(RegQData)
	want := fixed.Add(0, fixed.Mul(alpha, fixed.Sub(fixed.Add(reward, fixed.Mul(gamma, maxQ)), 0)))
	if fixed.FromRaw(int32(got)) != want {
		t.Fatalf("Q[0][0] = %v, want %v", fixed.FromRaw(int32(got)), want)
	}
}

func TestInferenceModeDoesNotUpdate(t *testing.T) {
	a := newAccel(t, smallParams())
	_, _ = a.WriteReg(RegLearn, 0)
	_, _ = a.WriteReg(RegState, 0)
	_, _ = a.WriteReg(RegReward, uint32(fixed.FromFloat(-5).Raw()))
	_, _ = a.WriteReg(RegCtrl, CtrlStep)
	_, _ = a.WriteReg(RegState, 1)
	_, _ = a.WriteReg(RegCtrl, CtrlStep)
	for i, row := range a.Table() {
		for j, v := range row {
			if v != 0 {
				t.Fatalf("Q[%d][%d] = %v after inference-only steps", i, j, v)
			}
		}
	}
}

func TestExplorationUsesLFSR(t *testing.T) {
	a := newAccel(t, smallParams())
	_, _ = a.WriteReg(RegEpsilon, uint32(fixed.One.Raw())) // always explore
	seen := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		_, _ = a.WriteReg(RegState, uint32(i%12))
		_, _ = a.WriteReg(RegCtrl, CtrlStep)
		act, _ := a.ReadReg(RegAction)
		if act >= 5 {
			t.Fatalf("explored action %d out of range", act)
		}
		seen[act] = true
	}
	if len(seen) < 4 {
		t.Fatalf("exploration visited only %d actions", len(seen))
	}
}

func TestLFSRDeterministicAndFullPeriodish(t *testing.T) {
	a := newAccel(t, smallParams())
	b := newAccel(t, smallParams())
	seen := map[uint16]bool{}
	for i := 0; i < 65535; i++ {
		va, vb := a.nextLFSR(), b.nextLFSR()
		if va != vb {
			t.Fatalf("LFSR diverged at %d", i)
		}
		if seen[va] {
			t.Fatalf("LFSR repeated after %d draws", i)
		}
		seen[va] = true
	}
}

func TestCtrlResetClearsEverything(t *testing.T) {
	a := newAccel(t, smallParams())
	_, _ = a.WriteReg(RegState, 3)
	_, _ = a.WriteReg(RegReward, uint32(fixed.FromFloat(-1).Raw()))
	_, _ = a.WriteReg(RegCtrl, CtrlStep)
	_, _ = a.WriteReg(RegCtrl, CtrlStep)
	if a.steps == 0 {
		t.Fatal("steps not counted")
	}
	_, _ = a.WriteReg(RegCtrl, CtrlReset)
	if a.steps != 0 || a.totalCycles != 0 {
		t.Fatal("counters not reset")
	}
	st, _ := a.ReadReg(RegStatus)
	if st != 0 {
		t.Fatal("status not reset")
	}
	for _, row := range a.Table() {
		for _, v := range row {
			if v != 0 {
				t.Fatal("table not cleared")
			}
		}
	}
}

func TestLoadTableValidatesShape(t *testing.T) {
	a := newAccel(t, smallParams())
	if err := a.LoadTable(make([][]float64, 3)); err == nil {
		t.Fatal("short table accepted")
	}
	bad := make([][]float64, 12)
	for i := range bad {
		bad[i] = make([]float64, 5)
	}
	bad[4] = bad[4][:2]
	if err := a.LoadTable(bad); err == nil {
		t.Fatal("ragged table accepted")
	}
}

func TestDriverStepTransaction(t *testing.T) {
	a := newAccel(t, smallParams())
	d, err := NewDriver(bus.DefaultConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(0.2, 0.85, 0, true); err != nil {
		t.Fatal(err)
	}
	act, lat, err := d.Step(3, -0.5)
	if err != nil {
		t.Fatal(err)
	}
	if act < 0 || act >= 5 {
		t.Fatalf("action %d out of range", act)
	}
	// 3 writes (4 cycles each @200MHz) + compute (13 cycles @100MHz) +
	// read (6 cycles @200MHz) = 60ns + 130ns + 30ns = 220ns (±1ns of
	// float-to-integer truncation).
	if got := lat.Nanoseconds(); got < 219 || got > 221 {
		t.Fatalf("transaction latency = %dns, want ~220ns", got)
	}
	if _, _, err := d.Step(99, 0); err == nil {
		t.Fatal("out-of-range state accepted")
	}
}

func TestDriverUploadTable(t *testing.T) {
	a := newAccel(t, smallParams())
	d, _ := NewDriver(bus.DefaultConfig(), a)
	table := make([][]float64, 12)
	for s := range table {
		table[s] = make([]float64, 5)
		for x := range table[s] {
			table[s][x] = float64(s) - float64(x)*0.25
		}
	}
	if err := d.UploadTable(table); err != nil {
		t.Fatal(err)
	}
	got := a.Table()
	for s := range table {
		for x := range table[s] {
			if got[s][x] != table[s][x] {
				t.Fatalf("Q[%d][%d] = %v, want %v", s, x, got[s][x], table[s][x])
			}
		}
	}
	if err := d.UploadTable(table[:2]); err == nil {
		t.Fatal("short upload accepted")
	}
}

func TestCompareLatency(t *testing.T) {
	a := newAccel(t, DefaultParams())
	d, _ := NewDriver(bus.DefaultConfig(), a)
	c, err := Compare(DefaultSWLatency(), d)
	if err != nil {
		t.Fatal(err)
	}
	if c.HWTotal <= c.HWDecision {
		t.Fatalf("HW total %v should exceed compute-only %v", c.HWTotal, c.HWDecision)
	}
	// The paper's bands: decision speedup ≈ 3.92×, total up to ~40×.
	if c.SpeedupDecision < 2.5 || c.SpeedupDecision > 6 {
		t.Fatalf("decision speedup %.2f outside the paper's band", c.SpeedupDecision)
	}
	if c.SpeedupTotal < 10 || c.SpeedupTail > 60 {
		t.Fatalf("total/tail speedups %.1f/%.1f outside the plausible band", c.SpeedupTotal, c.SpeedupTail)
	}
	if c.SpeedupTail < c.SpeedupTotal {
		t.Fatal("tail speedup below mean speedup")
	}
}

func TestSWLatencyModelValidate(t *testing.T) {
	m := DefaultSWLatency()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.CPUFreqHz = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero CPU freq accepted")
	}
	m = DefaultSWLatency()
	m.RowMissNs = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative miss accepted")
	}
}

func TestEstimateResourcesScaling(t *testing.T) {
	small, err := EstimateResources(Params{NumStates: 256, NumActions: 4, Banks: 1, LFSRSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := EstimateResources(Params{NumStates: 4096, NumActions: 16, Banks: 4, LFSRSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.BRAM36 <= small.BRAM36 {
		t.Fatalf("BRAM not scaling: %d vs %d", big.BRAM36, small.BRAM36)
	}
	if big.LUT <= small.LUT {
		t.Fatalf("LUT not scaling: %d vs %d", big.LUT, small.LUT)
	}
	if big.FmaxMHz >= small.FmaxMHz {
		t.Fatalf("Fmax should drop with tree depth: %v vs %v", big.FmaxMHz, small.FmaxMHz)
	}
	if small.DSP48 != 2 || big.DSP48 != 2 {
		t.Fatal("MAC should cost a fixed two DSP slices")
	}
	if _, err := EstimateResources(Params{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// Property: for any state/reward sequence, actions are in range and the
// table stays finite (saturating arithmetic can't produce NaN/Inf).
func TestStepInvariantsProperty(t *testing.T) {
	p := smallParams()
	f := func(seq []uint16) bool {
		a, _ := New(p)
		_, _ = a.WriteReg(RegEpsilon, uint32(fixed.FromFloat(0.3).Raw()))
		for _, v := range seq {
			_, _ = a.WriteReg(RegState, uint32(v)%uint32(p.NumStates))
			_, _ = a.WriteReg(RegReward, uint32(fixed.FromFloat(float64(int16(v))/64).Raw()))
			if _, err := a.WriteReg(RegCtrl, CtrlStep); err != nil {
				return false
			}
			act, _ := a.ReadReg(RegAction)
			if act >= uint32(p.NumActions) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccelStep(b *testing.B) {
	a, _ := New(DefaultParams())
	_, _ = a.WriteReg(RegState, 5)
	_, _ = a.WriteReg(RegReward, uint32(fixed.FromFloat(-0.5).Raw()))
	for i := 0; i < b.N; i++ {
		_, _ = a.WriteReg(RegCtrl, CtrlStep)
	}
}

func BenchmarkDriverStep(b *testing.B) {
	a, _ := New(DefaultParams())
	d, _ := NewDriver(bus.DefaultConfig(), a)
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Step(i%864, -0.5); err != nil {
			b.Fatal(err)
		}
	}
}
