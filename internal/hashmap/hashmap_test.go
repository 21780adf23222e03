package hashmap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

type walkRec struct {
	op       Op
	probes   int
	keyBytes int
	inserted bool
}

type recObs struct {
	walks    []walkRec
	resizes  []int
	rebuilds int
}

func (r *recObs) OnWalk(op Op, probes, keyBytes int, inserted bool) {
	r.walks = append(r.walks, walkRec{op, probes, keyBytes, inserted})
}
func (r *recObs) OnResize(n int) { r.resizes = append(r.resizes, n) }
func (r *recObs) OnRebuild()     { r.rebuilds++ }

// newMap numbers its maps the way a simulated core does: locally.
var lastMapID uint64

func newMap(obs Observer) *Map {
	lastMapID++
	return NewWithID(lastMapID, obs)
}

func TestGetSetBasic(t *testing.T) {
	m := newMap(nil)
	if _, ok := m.Get(StrKey("missing")); ok {
		t.Fatalf("empty map returned a value")
	}
	m.Set(StrKey("a"), 1)
	m.Set(IntKey(7), "seven")
	if v, ok := m.Get(StrKey("a")); !ok || v != 1 {
		t.Errorf("Get(a) = %v %v", v, ok)
	}
	if v, ok := m.Get(IntKey(7)); !ok || v != "seven" {
		t.Errorf("Get(7) = %v %v", v, ok)
	}
	if m.Size() != 2 {
		t.Errorf("Size = %d, want 2", m.Size())
	}
	m.Set(StrKey("a"), 2)
	if v, _ := m.Get(StrKey("a")); v != 2 {
		t.Errorf("update failed: %v", v)
	}
	if m.Size() != 2 {
		t.Errorf("update must not change size")
	}
}

func TestIntAndStrKeysDistinct(t *testing.T) {
	m := newMap(nil)
	m.Set(IntKey(1), "int")
	m.Set(StrKey("1"), "str")
	if v, _ := m.Get(IntKey(1)); v != "int" {
		t.Errorf("int key clobbered: %v", v)
	}
	if v, _ := m.Get(StrKey("1")); v != "str" {
		t.Errorf("str key clobbered: %v", v)
	}
}

func TestDelete(t *testing.T) {
	m := newMap(nil)
	m.Set(StrKey("x"), 1)
	if !m.Delete(StrKey("x")) {
		t.Fatalf("Delete of present key returned false")
	}
	if m.Delete(StrKey("x")) {
		t.Fatalf("double Delete returned true")
	}
	if _, ok := m.Get(StrKey("x")); ok {
		t.Errorf("deleted key still present")
	}
	if m.Size() != 0 {
		t.Errorf("Size after delete = %d", m.Size())
	}
}

func TestReinsertAfterDeleteUsesTombstone(t *testing.T) {
	m := newMap(nil)
	m.Set(StrKey("x"), 1)
	m.Delete(StrKey("x"))
	m.Set(StrKey("x"), 2)
	if v, ok := m.Get(StrKey("x")); !ok || v != 2 {
		t.Errorf("reinsert failed: %v %v", v, ok)
	}
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1", m.Size())
	}
}

func TestInsertionOrderIteration(t *testing.T) {
	m := newMap(nil)
	keys := []string{"delta", "alpha", "zulu", "bravo", "kilo"}
	for i, k := range keys {
		m.Set(StrKey(k), i)
	}
	m.Delete(StrKey("zulu"))
	m.Set(StrKey("zulu"), 99) // deleted and re-added: moves to the end
	var got []string
	m.Foreach(func(k Key, _ interface{}) bool {
		got = append(got, k.Str)
		return true
	})
	want := []string{"delta", "alpha", "bravo", "kilo", "zulu"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("iteration order = %v, want %v", got, want)
	}
}

func TestForeachEarlyStop(t *testing.T) {
	m := newMap(nil)
	for i := 0; i < 10; i++ {
		m.Set(IntKey(int64(i)), i)
	}
	n := 0
	m.Foreach(func(Key, interface{}) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d entries, want 3", n)
	}
}

func TestAppendAutoKeys(t *testing.T) {
	m := newMap(nil)
	// PHP's `$a[] = v`, as vm.Array and the hardware table spell it.
	push := func(v interface{}) Key {
		k := IntKey(m.NextIntKey())
		m.Set(k, v)
		return k
	}
	k0 := push("a")
	k1 := push("b")
	if !k0.IsInt || k0.Int != 0 || k1.Int != 1 {
		t.Errorf("auto keys wrong: %v %v", k0, k1)
	}
	m.Set(IntKey(10), "c")
	if k := push("d"); k.Int != 11 {
		t.Errorf("append after explicit int key = %v, want 11", k)
	}
}

func TestGrowthPreservesContents(t *testing.T) {
	obs := &recObs{}
	m := newMap(obs)
	const n = 1000
	for i := 0; i < n; i++ {
		m.Set(StrKey(fmt.Sprintf("key-%04d", i)), i)
	}
	if len(obs.resizes) == 0 {
		t.Fatalf("expected at least one resize for %d inserts", n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(StrKey(fmt.Sprintf("key-%04d", i))); !ok || v != i {
			t.Fatalf("lost key %d after growth: %v %v", i, v, ok)
		}
	}
	if m.Size() != n {
		t.Errorf("Size = %d, want %d", m.Size(), n)
	}
}

func TestObserverWalkEvents(t *testing.T) {
	obs := &recObs{}
	m := newMap(obs)
	m.Set(StrKey("abc"), 1)
	m.Get(StrKey("abc"))
	m.Get(StrKey("nope"))
	m.Delete(StrKey("abc"))

	if len(obs.walks) != 4 {
		t.Fatalf("got %d walk events, want 4", len(obs.walks))
	}
	if obs.walks[0].op != OpSet || !obs.walks[0].inserted {
		t.Errorf("first walk should be an inserting Set: %+v", obs.walks[0])
	}
	if obs.walks[1].op != OpGet || obs.walks[1].keyBytes < 3 {
		t.Errorf("hit Get should compare the key bytes: %+v", obs.walks[1])
	}
	for _, w := range obs.walks {
		if w.probes < 1 {
			t.Errorf("every walk probes at least one slot: %+v", w)
		}
	}
}

func TestStaleRebuild(t *testing.T) {
	obs := &recObs{}
	m := newMap(obs)
	m.Set(StrKey("a"), 1)
	m.Set(StrKey("b"), 2)
	m.MarkStale()
	if !m.stale {
		t.Fatalf("MarkStale did not mark")
	}
	if v, ok := m.Get(StrKey("a")); !ok || v != 1 {
		t.Errorf("Get after stale rebuild = %v %v", v, ok)
	}
	if m.stale {
		t.Errorf("access should clear stale flag")
	}
	if obs.rebuilds != 1 {
		t.Errorf("OnRebuild fired %d times, want 1", obs.rebuilds)
	}
}

// TestSetRawWriteback is the writeback entry point with a freshly
// reserved sequence number: it reports whether the key was present, and
// an absent key lands at the end of iteration order.
func TestSetRawWriteback(t *testing.T) {
	m := newMap(nil)
	m.Set(StrKey("a"), 1)
	if !m.WritebackSeq(StrKey("a"), 5, m.ReserveSeq()) {
		t.Errorf("writeback on present key should return true")
	}
	if v, _ := m.Get(StrKey("a")); v != 5 {
		t.Errorf("writeback did not update: %v", v)
	}
	if m.WritebackSeq(StrKey("new"), 7, m.ReserveSeq()) {
		t.Errorf("writeback on absent key should return false")
	}
	if v, ok := m.Get(StrKey("new")); !ok || v != 7 {
		t.Errorf("writeback insert failed: %v %v", v, ok)
	}
	var last Key
	m.Foreach(func(k Key, _ interface{}) bool { last = k; return true })
	if last.Str != "new" {
		t.Errorf("writeback insert not at end: last key %v", last)
	}
}

func TestKeyHashStability(t *testing.T) {
	if StrKey("wp_options").Hash() != StrKey("wp_options").Hash() {
		t.Errorf("string key hash not deterministic")
	}
	if IntKey(42).Hash() != IntKey(42).Hash() {
		t.Errorf("int key hash not deterministic")
	}
	if IntKey(42).Hash() == IntKey(43).Hash() {
		t.Errorf("adjacent int keys should not collide in 64 bits")
	}
}

func TestKeyLenAndString(t *testing.T) {
	if IntKey(5).Len() != 8 {
		t.Errorf("int key Len = %d", IntKey(5).Len())
	}
	if StrKey("abcde").Len() != 5 {
		t.Errorf("str key Len wrong")
	}
	if IntKey(5).String() != "#5" || StrKey("x").String() != "x" {
		t.Errorf("key String() wrong")
	}
}

// TestModelEquivalence drives random operation sequences against both the
// Map and a Go map + order slice model, checking full equivalence.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMap(nil)
		model := map[string]int{}
		var order []string // insertion order of live keys

		removeOrder := func(k string) {
			for i, s := range order {
				if s == k {
					order = append(order[:i], order[i+1:]...)
					return
				}
			}
		}

		for step := 0; step < 300; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1: // set
				v := rng.Intn(1000)
				if _, ok := model[k]; !ok {
					order = append(order, k)
				}
				model[k] = v
				m.Set(StrKey(k), v)
			case 2: // get
				v, ok := m.Get(StrKey(k))
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 3: // delete
				ok := m.Delete(StrKey(k))
				_, mok := model[k]
				if ok != mok {
					return false
				}
				if mok {
					delete(model, k)
					removeOrder(k)
				}
			}
			if rng.Intn(20) == 0 {
				m.MarkStale() // exercise the coherence rebuild path
			}
		}
		if m.Size() != len(model) {
			return false
		}
		var got []string
		m.Foreach(func(k Key, v interface{}) bool {
			got = append(got, k.Str)
			if model[k.Str] != v {
				got = append(got, "VALUE-MISMATCH")
			}
			return true
		})
		return fmt.Sprint(got) == fmt.Sprint(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestForeachSurvivesStaleRebuild is the regression test for the
// mid-iteration compaction panic: with tombstones in the entry table, a
// callback that marks the index stale and touches the map forces
// rebuildIndex to compact m.entries under the running iteration, which
// used to index past the shortened slice.
func TestForeachSurvivesStaleRebuild(t *testing.T) {
	m := newMap(nil)
	for i := 0; i < 20; i++ {
		m.Set(StrKey(fmt.Sprintf("k%02d", i)), i)
	}
	for i := 0; i < 10; i++ {
		m.Delete(StrKey(fmt.Sprintf("k%02d", i)))
	}
	visited := map[string]int{}
	m.Foreach(func(k Key, v interface{}) bool {
		// The coherence-rebuild path: the hardware flushes, the next
		// software access compacts the tombstoned entries.
		m.MarkStale()
		m.Get(k)
		visited[k.Str]++
		return true
	})
	if len(visited) != 10 {
		t.Fatalf("visited %d live keys, want 10", len(visited))
	}
	for k, n := range visited {
		if n != 1 {
			t.Errorf("key %s visited %d times, want exactly once", k, n)
		}
	}
}

// TestForeachSurvivesCallbackSet covers grows triggered by callback Sets:
// inserting new keys during iteration relocates the entry table.
func TestForeachSurvivesCallbackSet(t *testing.T) {
	m := newMap(nil)
	for i := 0; i < 8; i++ {
		m.Set(IntKey(int64(i)), i)
	}
	var got []Key
	i := 0
	m.Foreach(func(k Key, v interface{}) bool {
		// Enough inserts to force at least one index doubling mid-flight.
		for j := 0; j < 16; j++ {
			m.Set(StrKey(fmt.Sprintf("new-%d-%d", i, j)), j)
		}
		i++
		got = append(got, k)
		return true
	})
	if len(got) != 8 {
		t.Fatalf("visited %d keys, want the 8 pre-iteration keys", len(got))
	}
	for i, k := range got {
		if !k.IsInt || k.Int != int64(i) {
			t.Errorf("visit %d = %v, want #%d", i, k, i)
		}
	}
	if m.Size() != 8+8*16 {
		t.Errorf("Size = %d after callback inserts", m.Size())
	}
}

// TestForeachSurvivesCallbackDelete covers deletes during iteration: every
// key live at the start is still visited exactly once (copy semantics).
func TestForeachSurvivesCallbackDelete(t *testing.T) {
	m := newMap(nil)
	for i := 0; i < 12; i++ {
		m.Set(IntKey(int64(i)), i)
	}
	var got []int64
	m.Foreach(func(k Key, v interface{}) bool {
		m.Delete(IntKey((k.Int + 1) % 12)) // delete the next key
		got = append(got, k.Int)
		return true
	})
	if len(got) != 12 {
		t.Fatalf("visited %d keys, want 12: %v", len(got), got)
	}
}

// TestDeleteHeavyKeepsIndexBounded is the regression test for needGrow
// counting tombstones: repeated insert+delete cycles must not double the
// index when the live population stays tiny.
func TestDeleteHeavyKeepsIndexBounded(t *testing.T) {
	m := newMap(nil)
	for i := 0; i < 10000; i++ {
		k := StrKey(fmt.Sprintf("churn-%d", i))
		m.Set(k, i)
		m.Delete(k)
	}
	if m.Size() != 0 {
		t.Fatalf("Size = %d after balanced churn", m.Size())
	}
	if n := len(m.index); n > 64 {
		t.Errorf("index grew to %d slots under churn with ~0 live entries", n)
	}
	// The map must still work after all that compaction.
	m.Set(StrKey("alive"), 1)
	if v, ok := m.Get(StrKey("alive")); !ok || v != 1 {
		t.Errorf("map broken after churn: %v %v", v, ok)
	}
}

func BenchmarkMapGet(b *testing.B) {
	m := newMap(nil)
	for i := 0; i < 1024; i++ {
		m.Set(StrKey(fmt.Sprintf("key-%d", i)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(StrKey("key-512"))
	}
}

func BenchmarkMapSet(b *testing.B) {
	m := newMap(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(IntKey(int64(i&1023)), i)
	}
}
