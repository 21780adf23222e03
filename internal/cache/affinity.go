package cache

import (
	"sort"
	"strconv"
	"sync"
)

// DefaultRingReplicas is the virtual-node count per member used when
// NewRing is given a non-positive count. More virtual nodes smooth the key-range
// split across members (the per-member share concentrates around 1/N)
// at the cost of a larger sorted point table.
const DefaultRingReplicas = 128

// Ring is a consistent-hash ring mapping cache keys to named members —
// the affinity helper a cluster front (cmd/phprouter) uses to give each
// backend's response cache a stable slice of the key space. Stability
// is the point: adding or removing one member moves only the keys that
// member owns (about 1/N of the space), so every other backend's cache
// stays hot through membership churn — exactly the property a
// per-backend response cache needs during rolling restarts.
//
// Hashing builds on the cache's own shard hash (FNV-1a 64, see
// ringHash), so a key's ring position and its in-cache shard derive
// from the same function family. Safe for concurrent use.
type Ring struct {
	replicas int

	mu      sync.RWMutex
	members map[string]bool
	points  []ringPoint // sorted by hash, ascending
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 selects DefaultRingReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// ringHash positions a string on the ring: FNV-1a (the cache's shard
// hash family) followed by a 64-bit avalanche finalizer. The finalizer
// matters: raw FNV over near-identical short strings ("b0#1", "b0#2",
// ...) leaves enough low-bit structure to skew the per-member key share
// badly at realistic virtual-node counts.
func ringHash(s string) uint64 {
	h := fnv64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv64 is FNV-1a over s — the same hash family Cache uses for shard
// selection.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op, so health-driven re-admission is idempotent.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{ringHash(member + "#" + strconv.Itoa(i)), member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes; its key range redistributes
// to the ring-order successors while every other assignment stays put.
// Removing an absent member is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key — the first virtual node at or
// clockwise after the key's hash — and false when the ring is empty.
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(key)].member, true
}

// Owners returns up to n distinct members in ring order starting from
// key's owner — the fallback sequence a router walks when the owner is
// down or mid-restart, so rerouted keys land deterministically instead
// of scattering.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise after
// key's hash. Caller holds at least the read lock and has checked the
// ring is non-empty.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return i
}
