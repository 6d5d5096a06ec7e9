package bus

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// regFile is a simple test device: 16 registers, writing register 0xF
// starts a computation of the written number of device cycles.
type regFile struct {
	regs     [16]uint32
	failRead bool
}

func (r *regFile) ReadReg(addr uint32) (uint32, error) {
	if r.failRead {
		return 0, errors.New("boom")
	}
	if int(addr) >= len(r.regs) {
		return 0, errors.New("bad addr")
	}
	return r.regs[addr], nil
}

func (r *regFile) WriteReg(addr, val uint32) (uint64, error) {
	if int(addr) >= len(r.regs) {
		return 0, errors.New("bad addr")
	}
	r.regs[addr] = val
	if addr == 0xF {
		return uint64(val), nil
	}
	return 0, nil
}

func newBus(t *testing.T) (*Bus, *regFile) {
	t.Helper()
	dev := &regFile{}
	b, err := New(DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return b, dev
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{BusClockHz: 0, DeviceClockHz: 1, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: 1, DeviceClockHz: 0, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: 1, DeviceClockHz: 1, WriteCycles: 0, ReadCycles: 1},
		{BusClockHz: 1, DeviceClockHz: 1, WriteCycles: 1, ReadCycles: 0},
		// Regression: zero/negative/non-finite clocks would silently turn
		// every transaction cost into a division by zero or NaN latency.
		{BusClockHz: -200e6, DeviceClockHz: 100e6, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: 200e6, DeviceClockHz: -100e6, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: math.NaN(), DeviceClockHz: 100e6, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: 200e6, DeviceClockHz: math.NaN(), WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: math.Inf(1), DeviceClockHz: 100e6, WriteCycles: 1, ReadCycles: 1},
		{BusClockHz: 200e6, DeviceClockHz: math.Inf(1), WriteCycles: 1, ReadCycles: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
		if _, err := New(c, &regFile{}); err == nil {
			t.Errorf("constructor accepted bad config %d: %+v", i, c)
		}
	}
}

func TestWatchdogBoundsStalledRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 100
	dev := &regFile{}
	b, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the device: busy far past the watchdog bound.
	if err := b.Write(0xF, 1<<20); err != nil {
		t.Fatal(err)
	}
	afterWrite := b.nowS
	_, err = b.Read(1)
	if !errors.Is(err, ErrDeviceTimeout) {
		t.Fatalf("stalled read error = %v, want ErrDeviceTimeout", err)
	}
	// The read charged exactly the watchdog bound plus the round trip —
	// bounded, not the device's full busy time.
	want := afterWrite + float64(cfg.WatchdogCycles+cfg.ReadCycles)/cfg.BusClockHz
	if math.Abs(b.nowS-want) > 1e-12 {
		t.Fatalf("time after timed-out read = %v, want %v", b.nowS, want)
	}
	if b.Timeouts() != 1 {
		t.Fatalf("timeouts = %d, want 1", b.Timeouts())
	}
	// Still wedged: a retry without recovery times out again.
	if _, err := b.Read(1); !errors.Is(err, ErrDeviceTimeout) {
		t.Fatalf("retry without recovery = %v, want ErrDeviceTimeout", err)
	}
	// Recover clears the wedge; the next read completes un-stalled.
	b.Recover()
	if b.recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", b.recoveries)
	}
	before := b.nowS
	if _, err := b.Read(1); err != nil {
		t.Fatal(err)
	}
	if got := b.nowS - before; math.Abs(got-float64(cfg.ReadCycles)/cfg.BusClockHz) > 1e-15 {
		t.Fatalf("read after recovery cost %v, want plain read", got)
	}
}

func TestWatchdogToleratesShortStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 10000
	b, _ := New(cfg, &regFile{})
	_ = b.Write(0xF, 50) // well under the bound
	if _, err := b.Read(1); err != nil {
		t.Fatalf("short stall tripped the watchdog: %v", err)
	}
}

func TestIdleAdvancesClock(t *testing.T) {
	b, _ := newBus(t)
	cfg := DefaultConfig()
	b.Idle(100)
	want := 100 / cfg.BusClockHz
	if math.Abs(b.nowS-want) > 1e-15 {
		t.Fatalf("Idle(100) advanced to %v, want %v", b.nowS, want)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}, &regFile{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b, dev := newBus(t)
	if err := b.Write(3, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if dev.regs[3] != 0xdeadbeef {
		t.Fatalf("register not written: %#x", dev.regs[3])
	}
	v, err := b.Read(3)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("Read = %#x, %v", v, err)
	}
	reads, writes, _ := b.Stats()
	if reads != 1 || writes != 1 {
		t.Fatalf("stats = %d/%d", reads, writes)
	}
}

func TestTimingAccounting(t *testing.T) {
	b, _ := newBus(t)
	cfg := DefaultConfig()
	_ = b.Write(0, 1)
	wantWrite := float64(cfg.WriteCycles) / cfg.BusClockHz
	if math.Abs(b.nowS-wantWrite) > 1e-15 {
		t.Fatalf("time after write = %v, want %v", b.nowS, wantWrite)
	}
	_, _ = b.Read(0)
	want := wantWrite + float64(cfg.ReadCycles)/cfg.BusClockHz
	if math.Abs(b.nowS-want) > 1e-15 {
		t.Fatalf("time after read = %v, want %v", b.nowS, want)
	}
}

func TestComputeStallsRead(t *testing.T) {
	b, _ := newBus(t)
	cfg := DefaultConfig()
	const computeCycles = 50
	if err := b.Write(0xF, computeCycles); err != nil {
		t.Fatal(err)
	}
	afterWrite := b.nowS
	if _, err := b.Read(1); err != nil {
		t.Fatal(err)
	}
	// The read must have waited for the 50 device cycles then paid the
	// read cost.
	want := afterWrite + computeCycles/cfg.DeviceClockHz + float64(cfg.ReadCycles)/cfg.BusClockHz
	if math.Abs(b.nowS-want) > 1e-12 {
		t.Fatalf("time after stalled read = %v, want %v", b.nowS, want)
	}
	_, _, stall := b.Stats()
	if stall == 0 {
		t.Fatal("no stall cycles recorded")
	}
}

func TestNoStallAfterComputeDrains(t *testing.T) {
	b, _ := newBus(t)
	_ = b.Write(0xF, 10)
	_, _ = b.Read(0) // absorbs the stall
	before := b.nowS
	_, _ = b.Read(0)
	cfg := DefaultConfig()
	if got := b.nowS - before; math.Abs(got-float64(cfg.ReadCycles)/cfg.BusClockHz) > 1e-15 {
		t.Fatalf("second read cost %v, want plain read", got)
	}
}

func TestWriteErrorsPropagate(t *testing.T) {
	b, _ := newBus(t)
	if err := b.Write(99, 1); err == nil {
		t.Fatal("bad write accepted")
	}
	if _, err := b.Read(99); err == nil {
		t.Fatal("bad read accepted")
	}
}

func TestReadErrorPropagates(t *testing.T) {
	dev := &regFile{failRead: true}
	b, _ := New(DefaultConfig(), dev)
	if _, err := b.Read(0); err == nil {
		t.Fatal("device read error swallowed")
	}
}

func TestResetClock(t *testing.T) {
	b, _ := newBus(t)
	_ = b.Write(0xF, 1000)
	_, _ = b.Read(0)
	b.ResetClock()
	if b.nowS != 0 {
		t.Fatalf("clock not reset: %v", b.nowS)
	}
	r, w, s := b.Stats()
	if r != 0 || w != 0 || s != 0 {
		t.Fatal("stats not reset")
	}
	// busyUntil cleared: next read is un-stalled.
	_, _ = b.Read(0)
	cfg := DefaultConfig()
	if math.Abs(b.nowS-float64(cfg.ReadCycles)/cfg.BusClockHz) > 1e-15 {
		t.Fatalf("read after reset stalled: %v", b.nowS)
	}
}

func TestNowDuration(t *testing.T) {
	b, _ := newBus(t)
	_ = b.Write(0, 1)
	if b.Now() <= 0 {
		t.Fatal("Now() not positive after a write")
	}
}

// Property: time is monotone and total time equals the sum of per-op costs
// plus stalls.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		dev := &regFile{}
		b, _ := New(DefaultConfig(), dev)
		prev := 0.0
		for _, op := range ops {
			if op%3 == 0 {
				_ = b.Write(uint32(op%15), uint32(op))
			} else if op%3 == 1 {
				_ = b.Write(0xF, uint32(op%64)) // compute
			} else {
				_, _ = b.Read(uint32(op % 15))
			}
			if b.nowS < prev {
				return false
			}
			prev = b.nowS
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	dev := &regFile{}
	bus, _ := New(DefaultConfig(), dev)
	for i := 0; i < b.N; i++ {
		_ = bus.Write(1, uint32(i))
		_, _ = bus.Read(1)
	}
}
