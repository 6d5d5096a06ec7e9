package serve

import (
	"slices"
	"testing"
)

// TestDeviceSeedDerivation pins the per-device seed formula. The fleet
// driver, the learn harness, the fleet benchmark, and all differential
// oracles derive their streams through this function —
// from the device id only, never from the endpoint — so a silent change
// here would skew every byte-identical comparison in the suite.
func TestDeviceSeedDerivation(t *testing.T) {
	if got := DeviceSeed(1, 0); got != 1 {
		t.Fatalf("DeviceSeed(1, 0) = %d, want 1", got)
	}
	if got, want := DeviceSeed(1, 1), uint64(1+0x9e3779b9); got != want {
		t.Fatalf("DeviceSeed(1, 1) = %#x, want %#x", got, want)
	}
	if got, want := DeviceSeed(7, 100000), uint64(7+100000*0x9e3779b9); got != want {
		t.Fatalf("DeviceSeed(7, 100000) = %#x, want %#x", got, want)
	}
	// Device id only: the same (base, idx) always derives the same seed no
	// matter how a fleet run partitions devices over shards or workers.
	for idx := 0; idx < 64; idx++ {
		if DeviceSeed(3, idx) != DeviceSeed(3, idx) || DeviceSeed(3, idx) == DeviceSeed(4, idx) {
			t.Fatalf("seed derivation unstable at idx %d", idx)
		}
	}
}

// TestDeviceSimStreamEndpointIndependent is the regression for the
// per-device RNG-derivation fix: the same device (same base seed + id) served
// by two *independent* server processes — as a sharded fleet would —
// produces the byte-identical decision sequence. The device stream depends
// on nothing but the device id and the frozen model.
func TestDeviceSimStreamEndpointIndependent(t *testing.T) {
	model := testModel(t, 8, 6)
	run := func(srv *Server) []int {
		t.Helper()
		sess, err := srv.CreateSession(SessionOptions{Epsilon: 0.2, Seed: DeviceSeed(5, 3)})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		seq, err := RunDeviceSim(DeviceSimConfig{
			Scenario: "gaming", Periods: 40, Seed: DeviceSeed(5, 3), RewardEvery: 10,
		}, func(_ int, obs []Observation) ([]int, error) {
			return sess.Decide(obs)
		}, func(r float64) error {
			_, err := sess.Reward(r)
			return err
		})
		if err != nil {
			t.Fatalf("device sim: %v", err)
		}
		return seq
	}

	srvA, err := New(model, nil, Config{})
	if err != nil {
		t.Fatalf("server A: %v", err)
	}
	defer srvA.Close()
	srvB, err := New(model, nil, Config{Epoch: 9}) // distinct incarnation
	if err != nil {
		t.Fatalf("server B: %v", err)
	}
	defer srvB.Close()

	// Warm server B with unrelated sessions first, so the device's stream
	// cannot depend on server-side session ordering or handle values.
	for i := 0; i < 5; i++ {
		if _, err := srvB.CreateSession(SessionOptions{Seed: 1000 + uint64(i)}); err != nil {
			t.Fatalf("warm session: %v", err)
		}
	}

	a, b := run(srvA), run(srvB)
	if !slices.Equal(a, b) {
		t.Fatalf("device stream differs across endpoints:\nA: %v\nB: %v", a[:16], b[:16])
	}
	if len(a) != 40*model.Clusters() {
		t.Fatalf("sequence length %d, want %d", len(a), 40*model.Clusters())
	}
}
