package hashtable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hashmap"
)

// newMap numbers its maps the way isa.CPU does: one local counter.
var lastMapID uint64

func newMap() *hashmap.Map {
	lastMapID++
	return hashmap.NewWithID(lastMapID, nil)
}

// validEntries counts the table's occupied entries.
func validEntries(t *Table) int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// foreach is the hmforeach protocol isa.CPU runs: flush the map's dirty
// pairs in insertion order, then iterate the now-coherent software map.
func foreach(t *Table, m *hashmap.Map, f func(k hashmap.Key, v interface{}) bool) {
	t.FlushMap(m)
	m.Foreach(f)
}

// rebuildObs counts the software index reconstructions of one map.
type rebuildObs struct{ rebuilds int }

func (*rebuildObs) OnWalk(hashmap.Op, int, int, bool) {}
func (*rebuildObs) OnResize(int)                      {}
func (o *rebuildObs) OnRebuild()                      { o.rebuilds++ }

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.Entries != 512 || c.ProbeWindow != 4 || c.MaxKeyBytes != 24 {
		t.Errorf("paper config is 512 entries, 4-entry window, 24-byte keys: %+v", c)
	}
}

func TestConfigSanitize(t *testing.T) {
	c := Config{}.sanitized()
	if c.Entries <= 0 || c.ProbeWindow <= 0 || c.MaxKeyBytes <= 0 || c.RTTPointers <= 0 {
		t.Errorf("sanitized zero config invalid: %+v", c)
	}
	c = Config{Entries: 2, ProbeWindow: 10}.sanitized()
	if c.ProbeWindow > c.Entries {
		t.Errorf("probe window must not exceed entries: %+v", c)
	}
	// Entries rounds up to a power of two (lookups index with a mask).
	for in, want := range map[int]int{1: 1, 2: 2, 3: 4, 500: 512, 512: 512, 513: 1024} {
		if got := (Config{Entries: in}).sanitized().Entries; got != want {
			t.Errorf("Entries %d sanitized to %d, want %d", in, got, want)
		}
	}
}

func TestGetMissThenHit(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	m.Set(hashmap.StrKey("title"), "Hello")

	v, res := ht.Get(m, hashmap.StrKey("title"))
	if v != "Hello" || res.Hit || !res.Found {
		t.Fatalf("first Get should miss but find: %v %+v", v, res)
	}
	v, res = ht.Get(m, hashmap.StrKey("title"))
	if v != "Hello" || !res.Hit {
		t.Fatalf("second Get should hit: %v %+v", v, res)
	}
	st := ht.Stats()
	if st.Gets != 2 || st.GetHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetAbsentKey(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	v, res := ht.Get(m, hashmap.StrKey("nope"))
	if v != nil || res.Found || res.Hit {
		t.Errorf("absent key: %v %+v", v, res)
	}
}

func TestSetNeverMisses(t *testing.T) {
	// §4.2: "SET operations never miss in our design" — an insert always
	// lands in the table without software involvement.
	ht := New(DefaultConfig())
	m := newMap()
	res := ht.Set(m, hashmap.StrKey("k"), 1)
	if res.Bypass || res.Hit {
		t.Fatalf("fresh SET: %+v", res)
	}
	// The pair is visible through the accelerator immediately...
	v, g := ht.Get(m, hashmap.StrKey("k"))
	if v != 1 || !g.Hit {
		t.Fatalf("SET pair not readable: %v %+v", v, g)
	}
	// ...but memory has not been updated (silent SET).
	if _, ok := m.Get(hashmap.StrKey("k")); ok {
		t.Errorf("SET must not write through to memory")
	}
}

func TestSetHitUpdatesValue(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.StrKey("k"), 1)
	res := ht.Set(m, hashmap.StrKey("k"), 2)
	if !res.Hit {
		t.Fatalf("second SET should hit: %+v", res)
	}
	if v, _ := ht.Get(m, hashmap.StrKey("k")); v != 2 {
		t.Errorf("value not updated: %v", v)
	}
}

func TestLongKeysBypass(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	long := hashmap.StrKey(strings.Repeat("k", 25))
	ht.Set(m, long, "v")
	if v, ok := m.Get(long); !ok || v != "v" {
		t.Fatalf("bypassed SET must write memory directly: %v %v", v, ok)
	}
	_, res := ht.Get(m, long)
	if !res.Bypass || !res.Found {
		t.Errorf("long-key GET should bypass: %+v", res)
	}
	if ht.Stats().Bypasses != 2 {
		t.Errorf("bypass count = %d", ht.Stats().Bypasses)
	}
	if ht.Stats().Gets != 0 || ht.Stats().Sets != 0 {
		t.Errorf("bypasses must not count as hardware requests")
	}
}

func TestExactly24ByteKeyIsCached(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	k := hashmap.StrKey(strings.Repeat("x", 24))
	ht.Set(m, k, 1)
	if _, res := ht.Get(m, k); !res.Hit {
		t.Errorf("24-byte key should be hardware eligible")
	}
}

func TestFreeInvalidatesViaRTT(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	for i := 0; i < 10; i++ {
		ht.Set(m, hashmap.IntKey(int64(i)), i)
	}
	res := ht.Free(m)
	if res.Scanned {
		t.Errorf("10 entries fit the RTT; no scan expected")
	}
	if res.Invalidated != 10 {
		t.Errorf("invalidated %d entries, want 10", res.Invalidated)
	}
	if validEntries(ht) != 0 {
		t.Errorf("table should be empty after Free, len=%d", validEntries(ht))
	}
	// A freed short-lived map never touched memory.
	if m.Size() != 0 {
		t.Errorf("short-lived map leaked %d pairs to memory", m.Size())
	}
}

func TestRTTOverflowFallsBackToScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTTPointers = 4
	ht := New(cfg)
	m := newMap()
	for i := 0; i < 10; i++ {
		ht.Set(m, hashmap.IntKey(int64(i)), i)
	}
	res := ht.Free(m)
	if !res.Scanned {
		t.Errorf("RTT overflow should force a scan")
	}
	if validEntries(ht) != 0 {
		t.Errorf("scan must still invalidate everything, len=%d", validEntries(ht))
	}
	if ht.Stats().FreeScans != 1 {
		t.Errorf("FreeScans = %d", ht.Stats().FreeScans)
	}
}

func TestForeachInsertionOrder(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	keys := []string{"zeta", "alpha", "mid", "last"}
	for i, k := range keys {
		ht.Set(m, hashmap.StrKey(k), i)
	}
	var got []string
	foreach(ht, m, func(k hashmap.Key, v interface{}) bool {
		got = append(got, k.Str)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Errorf("foreach order = %v, want %v", got, keys)
	}
}

func TestForeachOrderSurvivesEvictions(t *testing.T) {
	// A tiny table forces constant evictions; the RTT's ordered-position
	// writeback must still produce insertion order (§4.2).
	cfg := Config{Entries: 4, ProbeWindow: 2, MaxKeyBytes: 24, RTTPointers: 128}
	ht := New(cfg)
	m := newMap()
	var want []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key%02d", i)
		want = append(want, k)
		ht.Set(m, hashmap.StrKey(k), i)
	}
	var got []string
	foreach(ht, m, func(k hashmap.Key, v interface{}) bool {
		got = append(got, k.Str)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order broken by evictions:\n got %v\nwant %v", got, want)
	}
	if ht.Stats().EvictDirty == 0 {
		t.Errorf("test should have forced dirty evictions")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := Config{Entries: 2, ProbeWindow: 2, MaxKeyBytes: 24, RTTPointers: 64}
	ht := New(cfg)
	m := newMap()
	for i := 0; i < 8; i++ {
		ht.Set(m, hashmap.IntKey(int64(i)), i)
	}
	// 8 inserts into a 2-entry table: at least 6 dirty evictions, each
	// writing its pair back to memory.
	if ht.Stats().EvictDirty < 6 {
		t.Errorf("EvictDirty = %d, want >= 6", ht.Stats().EvictDirty)
	}
	// Every evicted pair must be recoverable through the accelerator.
	for i := 0; i < 8; i++ {
		v, res := ht.Get(m, hashmap.IntKey(int64(i)))
		if v != i || !res.Found {
			t.Errorf("pair %d lost after eviction: %v %+v", i, v, res)
		}
	}
}

func TestDeleteDropsCachedCopy(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.StrKey("k"), 1)
	if !ht.Delete(m, hashmap.StrKey("k")) {
		// The pair only lived in hardware; memory delete reports false but
		// the key must be gone either way.
		if _, res := ht.Get(m, hashmap.StrKey("k")); res.Found {
			t.Errorf("deleted key still readable")
		}
	}
	if _, res := ht.Get(m, hashmap.StrKey("k")); res.Found {
		t.Errorf("deleted key still readable")
	}
}

func TestFlushAllMarksStale(t *testing.T) {
	ht := New(DefaultConfig())
	obs := &rebuildObs{}
	m := hashmap.NewWithID(1, obs)
	ht.Set(m, hashmap.StrKey("a"), 1)
	ht.Set(m, hashmap.StrKey("b"), 2)
	n := ht.FlushAll()
	if n != 2 {
		t.Errorf("FlushAll wrote %d, want 2", n)
	}
	if obs.rebuilds != 0 {
		t.Errorf("the flush itself must not rebuild the software index")
	}
	if v, ok := m.Get(hashmap.StrKey("a")); !ok || v != 1 {
		t.Errorf("software access after flush should rebuild and find: %v %v", v, ok)
	}
	if obs.rebuilds != 1 {
		t.Errorf("context-switch flush must mark the software index stale: %d reconstructions, want 1", obs.rebuilds)
	}
	if validEntries(ht) != 0 {
		t.Errorf("table not empty after FlushAll")
	}
}

func TestHitRateGrowsWithCapacity(t *testing.T) {
	// Fig. 7's shape: bigger tables give higher GET hit rates on a
	// working set with reuse.
	workload := func(entries int) float64 {
		cfg := DefaultConfig()
		cfg.Entries = entries
		ht := New(cfg)
		rng := rand.New(rand.NewSource(3))
		maps := make([]*hashmap.Map, 6)
		for i := range maps {
			maps[i] = newMap()
		}
		for op := 0; op < 20000; op++ {
			m := maps[rng.Intn(len(maps))]
			k := hashmap.StrKey(fmt.Sprintf("key%d", rng.Intn(40)))
			if rng.Intn(5) == 0 {
				ht.Set(m, k, op)
			} else {
				ht.Get(m, k)
			}
		}
		return ht.Stats().HitRate()
	}
	small, large := workload(16), workload(512)
	if large <= small {
		t.Errorf("hit rate should grow with capacity: %0.3f (16) vs %0.3f (512)", small, large)
	}
	if large < 0.9 {
		t.Errorf("512-entry table should capture this working set: %0.3f", large)
	}
}

func TestStatsHitRateZeroGets(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Errorf("zero gets should have zero hit rate")
	}
}

// TestCoherenceProperty drives random operations through the accelerator
// against a model map, with random context switches, foreaches and
// single-map flushes interleaved. The accelerator must be semantically
// invisible.
func TestCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Entries: 8, ProbeWindow: 2, MaxKeyBytes: 24, RTTPointers: 16}
		ht := New(cfg)

		type ctx struct {
			m     *hashmap.Map
			model map[string]int
			order []string
		}
		mk := func() *ctx { return &ctx{m: newMap(), model: map[string]int{}} }
		ctxs := []*ctx{mk(), mk(), mk()}

		for step := 0; step < 400; step++ {
			c := ctxs[rng.Intn(len(ctxs))]
			key := fmt.Sprintf("k%d", rng.Intn(12))
			switch rng.Intn(10) {
			case 0, 1, 2: // set
				v := rng.Intn(1 << 20)
				if _, ok := c.model[key]; !ok {
					c.order = append(c.order, key)
				}
				c.model[key] = v
				ht.Set(c.m, hashmap.StrKey(key), v)
			case 3, 4, 5, 6: // get
				v, res := ht.Get(c.m, hashmap.StrKey(key))
				mv, mok := c.model[key]
				if res.Found != mok {
					return false
				}
				if mok && v != mv {
					return false
				}
			case 7: // delete
				_, mok := c.model[key]
				delete(c.model, key)
				for i, s := range c.order {
					if s == key {
						c.order = append(c.order[:i], c.order[i+1:]...)
						break
					}
				}
				got := ht.Delete(c.m, hashmap.StrKey(key))
				_ = got
				_ = mok
			case 8: // foreach order check
				var got []string
				foreach(ht, c.m, func(k hashmap.Key, v interface{}) bool {
					got = append(got, k.Str)
					if c.model[k.Str] != v {
						got = append(got, "VALUE-MISMATCH")
					}
					return true
				})
				if fmt.Sprint(got) != fmt.Sprint(c.order) {
					return false
				}
			case 9: // context switch, or a flush of one map
				if rng.Intn(2) == 0 {
					ht.FlushAll()
				} else {
					ht.FlushMap(c.m)
				}
			}
		}
		// Final check: flush everything, software view must equal model.
		ht.FlushAll()
		for _, c := range ctxs {
			if c.m.Size() != len(c.model) {
				return false
			}
			ok := true
			c.m.Foreach(func(k hashmap.Key, v interface{}) bool {
				if c.model[k.Str] != v {
					ok = false
				}
				return ok
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetHit(b *testing.B) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.StrKey("key"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Get(m, hashmap.StrKey("key"))
	}
}

func BenchmarkSet(b *testing.B) {
	ht := New(DefaultConfig())
	m := newMap()
	keys := make([]hashmap.Key, 64)
	for i := range keys {
		keys[i] = hashmap.StrKey(fmt.Sprintf("key%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Set(m, keys[i&63], i)
	}
}

func TestCoherentReadWritesBackDirtyPair(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.StrKey("k"), "v")

	if _, ok := m.Get(hashmap.StrKey("k")); ok {
		t.Fatal("buffered SET must not reach the software map")
	}
	if !ht.CoherentRead(m, hashmap.StrKey("k")) {
		t.Fatal("CoherentRead should write the dirty pair back")
	}
	if v, ok := m.Get(hashmap.StrKey("k")); !ok || v != "v" {
		t.Fatalf("software map after snoop: %v %v", v, ok)
	}
	if ht.CoherentRead(m, hashmap.StrKey("k")) {
		t.Error("second CoherentRead should find the entry clean")
	}
	// The entry stays cached: a later hardware GET still hits.
	if _, res := ht.Get(m, hashmap.StrKey("k")); !res.Hit {
		t.Error("snooped entry should remain valid in the table")
	}
}

func TestCoherentWriteInvalidatesCachedPair(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.StrKey("k"), "old")

	if !ht.CoherentWrite(m, hashmap.StrKey("k")) {
		t.Fatal("CoherentWrite should drop the cached pair")
	}
	m.Set(hashmap.StrKey("k"), "new")
	v, res := ht.Get(m, hashmap.StrKey("k"))
	if res.Hit {
		t.Error("invalidated entry must not serve the stale value")
	}
	if v != "new" || !res.Found {
		t.Errorf("software fallback should return the stored value: %v %+v", v, res)
	}
}

func TestSetBumpsAppendWatermark(t *testing.T) {
	ht := New(DefaultConfig())
	m := newMap()
	ht.Set(m, hashmap.IntKey(5), "x")

	// The buffered insert must advance the software append index even
	// though the pair itself has not been written back yet.
	if got := m.NextIntKey(); got != 6 {
		t.Errorf("NextIntKey after buffered Set(5) = %d, want 6", got)
	}
}
