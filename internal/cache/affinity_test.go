package cache

import (
	"fmt"
	"slices"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
	}
	return keys
}

func assignAll(r *Ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		m, ok := r.Owner(k)
		if !ok {
			continue
		}
		out[k] = m
	}
	return out
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner("page:1"); ok {
		t.Fatal("empty ring returned an owner")
	}
	if got := r.Owners("page:1", 3); got != nil {
		t.Fatalf("empty ring Owners = %v, want nil", got)
	}
	r.Add("b0")
	for _, k := range ringKeys(100) {
		m, ok := r.Owner(k)
		if !ok || m != "b0" {
			t.Fatalf("single-member ring: Owner(%s) = %q, %v", k, m, ok)
		}
	}
	if len(r.members) != 1 {
		t.Fatalf("%d members, want 1", len(r.members))
	}
}

// TestRingStableAssignment is the core consistency property: removing a
// member moves only that member's keys, and re-adding it restores the
// original assignment exactly.
func TestRingStableAssignment(t *testing.T) {
	r := NewRing(128)
	members := []string{"b0", "b1", "b2", "b3"}
	for _, m := range members {
		r.Add(m)
	}
	keys := ringKeys(10000)
	before := assignAll(r, keys)

	r.Remove("b2")
	after := assignAll(r, keys)
	for _, k := range keys {
		if before[k] != "b2" && after[k] != before[k] {
			t.Fatalf("key %s moved from %s to %s though its owner stayed up", k, before[k], after[k])
		}
		if before[k] == "b2" && after[k] == "b2" {
			t.Fatalf("key %s still assigned to removed member", k)
		}
	}

	r.Add("b2")
	restored := assignAll(r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %s = %s after re-add, want original owner %s", k, restored[k], before[k])
		}
	}
}

// TestRingAddMovesAboutOneOverN: growing from 4 to 5 members moves only
// keys that land on the new member, and that share is ~1/5.
func TestRingAddMovesAboutOneOverN(t *testing.T) {
	r := NewRing(128)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	keys := ringKeys(10000)
	before := assignAll(r, keys)

	r.Add("b4")
	after := assignAll(r, keys)
	moved := 0
	for _, k := range keys {
		if after[k] != before[k] {
			moved++
			if after[k] != "b4" {
				t.Fatalf("key %s moved to %s, not the new member", k, after[k])
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.08 || frac > 0.40 {
		t.Fatalf("add moved %.1f%% of keys, want roughly 1/5 (8%%-40%% band)", 100*frac)
	}
}

// TestRingBalance: with enough virtual nodes no member owns a wildly
// disproportionate key share.
func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	n := 4
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	counts := make(map[string]int)
	for _, k := range ringKeys(10000) {
		m, _ := r.Owner(k)
		counts[m]++
	}
	for m, c := range counts {
		frac := float64(c) / 10000
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys, want near %.0f%%", m, 100*frac, 100.0/float64(n))
		}
	}
}

func TestRingOwnersFallbackOrder(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	for _, k := range ringKeys(200) {
		owner, _ := r.Owner(k)
		seq := r.Owners(k, 3)
		if len(seq) != 3 {
			t.Fatalf("Owners(%s, 3) = %v, want 3 distinct members", k, seq)
		}
		if seq[0] != owner {
			t.Fatalf("Owners(%s)[0] = %s, want Owner %s", k, seq[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Owners(%s) repeats member %s: %v", k, m, seq)
			}
			seen[m] = true
		}
	}
	if got := r.Owners("page:1", 10); len(got) != 3 {
		t.Fatalf("Owners capped at member count: got %v", got)
	}
}

// ownersByMap is Owners as it was written with a seen-set map: the
// reference order the scanning version must keep.
func ownersByMap(r *Ring, key string, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	var out []string
	seen := make(map[string]bool)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		if m := r.points[(start+i)%len(r.points)].member; !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// TestRingOwnersOneAllocation: the fallback sequence costs the router one
// allocation per proxied request, the result slice, and walks the ring
// in the same order the map-deduplicating version did.
func TestRingOwnersOneAllocation(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("b%d", i))
	}
	for _, k := range ringKeys(200) {
		for _, n := range []int{1, 2, 3, 10} {
			if got, want := r.Owners(k, n), ownersByMap(r, k, n); !slices.Equal(got, want) {
				t.Fatalf("Owners(%s, %d) = %v, want %v", k, n, got, want)
			}
		}
	}

	two := NewRing(DefaultRingReplicas)
	two.Add("0")
	two.Add("1")
	if n := testing.AllocsPerRun(100, func() { two.Owners("page:7", 2) }); n != 1 {
		t.Fatalf("Owners over 2 members allocates %v times, want 1 (the result slice)", n)
	}
}

func TestRingIdempotentMembership(t *testing.T) {
	r := NewRing(32)
	r.Add("b0")
	points := len(r.points)
	r.Add("b0")
	if len(r.points) != points {
		t.Fatal("double Add grew the point table")
	}
	r.Remove("missing")
	if len(r.points) != points {
		t.Fatal("Remove of absent member changed the point table")
	}
	if len(r.members) != 1 || !r.members["b0"] {
		t.Fatalf("members = %v", r.members)
	}
}
