// Package shard is the horizontal scaling tier: a consistent-hash ring
// mapping device keys to N pmserve shards, a thin router speaking the wire
// v2 protocol on both sides, per-shard Q-table replicas hydrated from the
// versioned checkpoint codec, and shard add/remove with session handoff.
//
// The ring is the contract everything else leans on:
//
//   - deterministic: point placement depends only on (seed, member name,
//     virtual node index) — two processes that agree on the member set and
//     seed agree on every routing decision, with no coordination.
//   - minimal movement: adding a member moves only the keys that land on
//     the new member; removing one moves only the keys it owned. Session
//     handoff cost is proportional to the keyspace that actually moved.
//   - balanced: enough virtual nodes per member that key load spreads
//     within tolerance (pinned by a χ² property test).
package shard

import (
	"sort"

	"rlpm/internal/rng"
)

// DefaultVNodes is the virtual-node count per member when the caller
// passes zero: enough for single-digit-percent imbalance at realistic
// member counts, small enough that rebuilds stay microseconds.
const DefaultVNodes = 160

// ringPoint is one virtual node on the circle.
type ringPoint struct {
	h     uint64
	owner int32 // index into names
	vn    int32
}

// Ring is a seed-deterministic consistent-hash ring. Not goroutine-safe;
// the router guards it with its own lock.
type Ring struct {
	seed   uint64
	vnodes int
	names  []string // sorted member names
	points []ringPoint
}

// NewRing creates an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// fnv64a is FNV-1a over the member name — stable across processes and Go
// versions, unlike the runtime's randomized string hash.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pointHash places one virtual node. It depends only on (seed, name, vn),
// never on the member set — the independence that makes key movement
// minimal on membership change.
func (r *Ring) pointHash(name string, vn int) uint64 {
	return rng.Mix64(fnv64a(name) + rng.Mix64(r.seed+uint64(vn)*0x9e3779b97f4a7c15))
}

// keyHash places a device key on the circle.
func (r *Ring) keyHash(key uint64) uint64 {
	return rng.Mix64(key ^ rng.Mix64(r.seed))
}

// rebuild recomputes the sorted point list from the member set. The sort
// order (hash, then name, then vnode) is a total order independent of
// insertion history, so every process building the same member set gets
// the identical circle.
func (r *Ring) rebuild() {
	if cap(r.points) < len(r.names)*r.vnodes {
		r.points = make([]ringPoint, 0, len(r.names)*r.vnodes)
	}
	r.points = r.points[:0]
	for oi, name := range r.names {
		for vn := 0; vn < r.vnodes; vn++ {
			r.points = append(r.points, ringPoint{h: r.pointHash(name, vn), owner: int32(oi), vn: int32(vn)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.h != b.h {
			return a.h < b.h
		}
		if r.names[a.owner] != r.names[b.owner] {
			return r.names[a.owner] < r.names[b.owner]
		}
		return a.vn < b.vn
	})
}

// Add inserts a member; it reports false if the name is already present.
func (r *Ring) Add(name string) bool {
	i := sort.SearchStrings(r.names, name)
	if i < len(r.names) && r.names[i] == name {
		return false
	}
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	r.rebuild()
	return true
}

// Remove deletes a member; it reports false if the name is absent.
func (r *Ring) Remove(name string) bool {
	i := sort.SearchStrings(r.names, name)
	if i == len(r.names) || r.names[i] != name {
		return false
	}
	r.names = append(r.names[:i], r.names[i+1:]...)
	r.rebuild()
	return true
}

// Members returns the member names in sorted order. The slice is a copy.
func (r *Ring) Members() []string {
	return append([]string(nil), r.names...)
}

// OwnerIndex maps a key to its owning member's index in Members() order.
// ok is false on an empty ring.
func (r *Ring) OwnerIndex(key uint64) (int, bool) {
	if len(r.points) == 0 {
		return -1, false
	}
	kh := r.keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= kh })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].owner), true
}

// Owner maps a key to its owning member's name. ok is false on an empty
// ring.
func (r *Ring) Owner(key uint64) (string, bool) {
	i, ok := r.OwnerIndex(key)
	if !ok {
		return "", false
	}
	return r.names[i], true
}
