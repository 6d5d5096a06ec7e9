package shard

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzRingRoute drives the ring through an arbitrary membership history
// and routes keys after every operation, checking the safety properties
// the router depends on: routing never panics, a non-empty ring always
// returns a live member, an empty ring never fabricates one, and two
// rings fed the same history agree on every answer (the cross-process
// determinism contract).
func FuzzRingRoute(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x83, 0x04}, uint64(1), uint64(42))
	f.Add([]byte{0x00, 0x80, 0x00, 0x01, 0x81}, uint64(99), uint64(7))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, ops []byte, key uint64, seed uint64) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		a := NewRing(seed, 16)
		b := NewRing(seed, 16)
		for i, op := range ops {
			name := fmt.Sprintf("m%d", op&0x3f)
			if op&0x80 != 0 {
				if a.Remove(name) != b.Remove(name) {
					t.Fatalf("op %d: remove(%s) diverged", i, name)
				}
			} else {
				if a.Add(name) != b.Add(name) {
					t.Fatalf("op %d: add(%s) diverged", i, name)
				}
			}
			k := key + uint64(i)*0x9e3779b9
			oa, oka := a.Owner(k)
			ob, okb := b.Owner(k)
			if oka != okb || oa != ob {
				t.Fatalf("op %d: owner(%d) diverged: %q/%v vs %q/%v", i, k, oa, oka, ob, okb)
			}
			members := a.Members()
			if len(members) == 0 {
				if oka {
					t.Fatalf("op %d: empty ring returned owner %q", i, oa)
				}
				continue
			}
			if !oka {
				t.Fatalf("op %d: non-empty ring (%d members) returned no owner", i, len(members))
			}
			if !slices.Contains(members, oa) {
				t.Fatalf("op %d: owner %q is not a live member", i, oa)
			}
		}
	})
}
