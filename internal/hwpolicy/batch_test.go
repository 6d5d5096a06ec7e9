package hwpolicy

import (
	"testing"

	"rlpm/internal/bus"
	"rlpm/internal/fixed"
)

func multiParams() []Params {
	return []Params{
		{NumStates: 96, NumActions: 8, Banks: 2, LFSRSeed: 0xACE1},
		{NumStates: 108, NumActions: 9, Banks: 2, LFSRSeed: 0xACE3},
		{NumStates: 60, NumActions: 5, Banks: 1, LFSRSeed: 0xACE5},
	}
}

func newMulti(t *testing.T) *MultiAccel {
	t.Helper()
	m, err := NewMulti(multiParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiValidates(t *testing.T) {
	if _, err := NewMulti(nil); err == nil {
		t.Fatal("empty channel list accepted")
	}
	if _, err := NewMulti([]Params{{}}); err == nil {
		t.Fatal("invalid channel params accepted")
	}
	m := newMulti(t)
	if len(m.channels) != 3 {
		t.Fatalf("channels = %d", len(m.channels))
	}
}

func TestMultiAddressDecoding(t *testing.T) {
	m := newMulti(t)
	// Write a distinct alpha into each channel and read it back through
	// the strided address space.
	for c := 0; c < 3; c++ {
		base := uint32(c) * ChannelStride
		want := uint32(fixed.FromFloat(0.1 * float64(c+1)).Raw())
		if _, err := m.WriteReg(base+RegAlpha, want); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadReg(base + RegAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("channel %d alpha = %#x, want %#x", c, got, want)
		}
	}
	// Channels are isolated: channel 1's alpha differs from channel 0's.
	a0, _ := m.ReadReg(0*ChannelStride + RegAlpha)
	a1, _ := m.ReadReg(1*ChannelStride + RegAlpha)
	if a0 == a1 {
		t.Fatal("channels share register state")
	}
}

func TestMultiRejectsOutOfRange(t *testing.T) {
	m := newMulti(t)
	if _, err := m.ReadReg(5 * ChannelStride); err == nil {
		t.Fatal("read beyond last channel accepted")
	}
	if _, err := m.WriteReg(5*ChannelStride, 0); err == nil {
		t.Fatal("write beyond last channel accepted")
	}
	if _, err := m.WriteReg(GlobalCtrl, 0xbeef); err == nil {
		t.Fatal("bad global command accepted")
	}
}

func TestGlobalStepRunsAllChannels(t *testing.T) {
	m := newMulti(t)
	for c := 0; c < 3; c++ {
		base := uint32(c) * ChannelStride
		if _, err := m.WriteReg(base+RegState, uint32(c)); err != nil {
			t.Fatal(err)
		}
	}
	cycles, err := m.WriteReg(GlobalCtrl, CtrlStep)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel channels: cost is the max channel latency, not the sum.
	var maxC, sumC uint64
	for c := 0; c < 3; c++ {
		sc := m.channels[c].StepCycles()
		sumC += sc
		if sc > maxC {
			maxC = sc
		}
	}
	if cycles != maxC {
		t.Fatalf("global step cost %d, want max %d (sum would be %d)", cycles, maxC, sumC)
	}
	for c := 0; c < 3; c++ {
		if m.channels[c].steps != 1 {
			t.Fatalf("channel %d did not step", c)
		}
	}
}

func TestMultiDriverStepAll(t *testing.T) {
	m := newMulti(t)
	d, err := NewMultiDriver(bus.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(0.2, 0.85, 0, true); err != nil {
		t.Fatal(err)
	}
	actions, lat, err := d.StepAll([]int{1, 2, 3}, []float64{-0.5, -0.3, -0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 3 {
		t.Fatalf("actions = %v", actions)
	}
	for c, a := range actions {
		if a < 0 || a >= m.channels[c].Params().NumActions {
			t.Fatalf("channel %d action %d out of range", c, a)
		}
	}
	if lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
}

func TestMultiDriverValidatesArgs(t *testing.T) {
	d, _ := NewMultiDriver(bus.DefaultConfig(), newMulti(t))
	if _, _, err := d.StepAll([]int{1}, []float64{0}); err == nil {
		t.Fatal("short state vector accepted")
	}
	if _, _, err := d.StepAll([]int{1, 2, 9999}, []float64{0, 0, 0}); err == nil {
		t.Fatal("out-of-range state accepted")
	}
	if _, err := NewMultiDriver(bus.DefaultConfig(), nil); err == nil {
		t.Fatal("nil accelerator accepted")
	}
}

func TestBatchedBeatsSequentialTransactions(t *testing.T) {
	// The point of the multi-channel design: deciding all three domains in
	// one conversation must be faster than three single-channel
	// transactions.
	m := newMulti(t)
	d, _ := NewMultiDriver(bus.DefaultConfig(), m)
	_, batched, err := d.StepAll([]int{0, 0, 0}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}

	var sequential int64
	for _, p := range multiParams() {
		a, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := NewDriver(bus.DefaultConfig(), a)
		if err != nil {
			t.Fatal(err)
		}
		_, lat, err := sd.Step(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sequential += lat.Nanoseconds()
	}
	if batched.Nanoseconds() >= sequential {
		t.Fatalf("batched %vns not faster than sequential %vns", batched.Nanoseconds(), sequential)
	}
}

func TestMultiChannelsMatchSingleChannelBitExactly(t *testing.T) {
	// A channel inside the multi-channel device must behave identically to
	// a standalone accelerator with the same parameters and stimulus.
	p := multiParams()[1]
	solo, _ := New(p)
	m := newMulti(t)
	base := uint32(1) * ChannelStride

	stim := []struct {
		state  uint32
		reward float64
	}{{3, -0.5}, {7, -0.2}, {3, -0.9}, {0, 0.1}, {7, -0.4}}
	for _, s := range stim {
		_, _ = solo.WriteReg(RegState, s.state)
		_, _ = solo.WriteReg(RegReward, uint32(fixed.FromFloat(s.reward).Raw()))
		_, _ = solo.WriteReg(RegCtrl, CtrlStep)

		_, _ = m.WriteReg(base+RegState, s.state)
		_, _ = m.WriteReg(base+RegReward, uint32(fixed.FromFloat(s.reward).Raw()))
		_, _ = m.WriteReg(base+RegCtrl, CtrlStep)

		a1, _ := solo.ReadReg(RegAction)
		a2, _ := m.ReadReg(base + RegAction)
		if a1 != a2 {
			t.Fatalf("actions diverged: %d vs %d", a1, a2)
		}
	}
	t1 := solo.Table()
	t2 := m.channels[1].Table()
	for s := range t1 {
		for x := range t1[s] {
			if t1[s][x] != t2[s][x] {
				t.Fatalf("Q[%d][%d] diverged", s, x)
			}
		}
	}
}

func BenchmarkMultiDriverStepAll(b *testing.B) {
	m, _ := NewMulti(multiParams())
	d, _ := NewMultiDriver(bus.DefaultConfig(), m)
	states := []int{1, 2, 3}
	rewards := []float64{-0.5, -0.3, -0.1}
	for i := 0; i < b.N; i++ {
		if _, _, err := d.StepAll(states, rewards); err != nil {
			b.Fatal(err)
		}
	}
}
