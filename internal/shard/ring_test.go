package shard

import (
	"fmt"
	"testing"
)

// TestRingGoldenDeterminism is the cross-process determinism pin: the
// owner of every key is a pure function of (seed, vnodes, member set), so
// this hard-coded fixture must reproduce on any machine, any Go version,
// any process — the property that lets routers agree on placement
// without coordinating.
func TestRingGoldenDeterminism(t *testing.T) {
	r := NewRing(42, 64)
	for _, n := range []string{"alpha", "beta", "gamma"} {
		if !r.Add(n) {
			t.Fatalf("add %s failed", n)
		}
	}
	want := []string{
		"alpha", "beta", "gamma", "alpha", "alpha", "alpha", "gamma", "beta",
		"alpha", "gamma", "gamma", "beta", "beta", "gamma", "alpha", "beta",
	}
	for k, w := range want {
		if got, ok := r.Owner(uint64(k)); !ok || got != w {
			t.Fatalf("owner(%d) = %q, want %q", k, got, w)
		}
	}
}

// TestRingOrderIndependence checks that insertion history is invisible:
// any add/remove path arriving at the same member set routes identically.
func TestRingOrderIndependence(t *testing.T) {
	build := func(ops func(*Ring)) *Ring {
		r := NewRing(9, 32)
		ops(r)
		return r
	}
	a := build(func(r *Ring) { r.Add("s0"); r.Add("s1"); r.Add("s2") })
	b := build(func(r *Ring) { r.Add("s2"); r.Add("s0"); r.Add("s1") })
	c := build(func(r *Ring) {
		r.Add("s1")
		r.Add("x")
		r.Add("s2")
		r.Remove("x")
		r.Add("s0")
	})
	for k := uint64(0); k < 5000; k++ {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		oc, _ := c.Owner(k)
		if oa != ob || oa != oc {
			t.Fatalf("key %d: owners diverge across build orders: %q %q %q", k, oa, ob, oc)
		}
	}
}

// TestRingMinimalMovementOnAdd checks the strict form of the movement
// bound: every key that changes owner when a member joins moves TO the
// new member, and the moved fraction is close to the ideal 1/(n+1).
func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := NewRing(7, DefaultVNodes)
	for s := 0; s < 3; s++ {
		r.Add(fmt.Sprintf("s%d", s))
	}
	const keys = 20000
	before := make([]string, keys)
	for k := range before {
		before[k], _ = r.Owner(uint64(k))
	}
	r.Add("s3")
	moved := 0
	for k := range before {
		after, _ := r.Owner(uint64(k))
		if after != before[k] {
			moved++
			if after != "s3" {
				t.Fatalf("key %d moved %s -> %s, not to the new member", k, before[k], after)
			}
		}
	}
	// Ideal movement is keys/4 = 5000; allow vnode-placement variance.
	if moved < keys/6 || moved > keys/3 {
		t.Fatalf("moved %d of %d keys on add; want ~%d (1/4)", moved, keys, keys/4)
	}
}

// TestRingMinimalMovementOnRemove checks that removing a member moves
// exactly the keys it owned, and that re-adding it restores the original
// assignment key for key.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	r := NewRing(11, DefaultVNodes)
	for s := 0; s < 4; s++ {
		r.Add(fmt.Sprintf("s%d", s))
	}
	const keys = 20000
	before := make([]string, keys)
	for k := range before {
		before[k], _ = r.Owner(uint64(k))
	}
	r.Remove("s1")
	for k := range before {
		after, _ := r.Owner(uint64(k))
		if (after != before[k]) != (before[k] == "s1") {
			t.Fatalf("key %d: owner %s -> %s on remove of s1 (movement must be exactly s1's keyspace)",
				k, before[k], after)
		}
		if after == "s1" {
			t.Fatalf("key %d still routed to removed member", k)
		}
	}
	r.Add("s1")
	for k := range before {
		after, _ := r.Owner(uint64(k))
		if after != before[k] {
			t.Fatalf("key %d: owner %s != %s after remove+re-add", k, after, before[k])
		}
	}
}

// TestRingBalance pins load spread at 1k and 100k device keys (derived
// with the fleet's DeviceSeed-shaped stride): χ² against the uniform
// expectation and worst-member deviation stay within tolerance. The seeds
// are fixed, so the statistics are deterministic — thresholds hold exact
// headroom over the measured values, and any hash or placement change that
// degrades balance trips them.
func TestRingBalance(t *testing.T) {
	cases := []struct {
		keys    int
		shards  int
		maxChi2 float64
		maxDev  float64 // |count/expected - 1| for the worst member
	}{
		{1000, 4, 40, 0.25},
		{100000, 4, 600, 0.10},
		{100000, 8, 400, 0.12},
	}
	for _, tc := range cases {
		r := NewRing(7, DefaultVNodes)
		for s := 0; s < tc.shards; s++ {
			r.Add(fmt.Sprintf("s%d", s))
		}
		counts := make(map[string]int, tc.shards)
		for k := 0; k < tc.keys; k++ {
			o, ok := r.Owner(1 + uint64(k)*0x9e3779b9)
			if !ok {
				t.Fatalf("no owner for key %d", k)
			}
			counts[o]++
		}
		if len(counts) != tc.shards {
			t.Fatalf("%d keys landed on %d of %d shards", tc.keys, len(counts), tc.shards)
		}
		exp := float64(tc.keys) / float64(tc.shards)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - exp
			chi2 += d * d / exp
			dev := d / exp
			if dev < 0 {
				dev = -dev
			}
			if dev > tc.maxDev {
				t.Errorf("keys=%d shards=%d: member at %.1f%% deviation (count %d, expected %.0f), tolerance %.1f%%",
					tc.keys, tc.shards, dev*100, c, exp, tc.maxDev*100)
			}
		}
		if chi2 > tc.maxChi2 {
			t.Errorf("keys=%d shards=%d: χ² = %.1f exceeds %.1f", tc.keys, tc.shards, chi2, tc.maxChi2)
		}
	}
}

// TestRingEmptyAndDuplicates covers the degenerate edges the router can
// hit mid-rebalance.
func TestRingEmptyAndDuplicates(t *testing.T) {
	r := NewRing(1, 8)
	if _, ok := r.Owner(5); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if !r.Add("a") || r.Add("a") {
		t.Fatal("duplicate add not rejected")
	}
	if o, ok := r.Owner(5); !ok || o != "a" {
		t.Fatalf("single-member ring routed to %q", o)
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Fatal("duplicate remove not rejected")
	}
	if _, ok := r.Owner(5); ok {
		t.Fatal("emptied ring claimed an owner")
	}
	if len(r.Members()) != 0 {
		t.Fatalf("removed member still reported present: %v", r.Members())
	}
}
