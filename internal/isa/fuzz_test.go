package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core/hashtable"
	"repro/internal/hashmap"
	"repro/internal/sim"
)

// FuzzHashSequence runs one decoded sequence of hash-map operations on a
// software core and on a mitigated + accelerated core side by side and
// requires the two to be indistinguishable: every lookup result, delete
// result, size, append watermark and foreach (order and values). Both
// hash-table coherence bugs found so far lived between the hardware
// table and the software map; this is their search space. The hardware
// table is shrunk to 8 entries with 4 RTT pointers so that evictions,
// dirty writebacks and RTT overflow happen within a few operations.
//
// Each operation is one opcode byte followed by its operands: a map slot
// (three maps live at a time), a key byte (small ints, short strings and
// strings past the 24-byte inline limit, each string spelled with or
// without its cached hash, and the other way on the other core) and, for
// stores, a value (every
// kind, arrays included; an array value is compared by the creation
// index of the map it points to).
func FuzzHashSequence(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		// a dynamic store, dynamic and static gets, foreach, count()
		{0, 0, 1, 2, 7, 2, 0, 1, 3, 0, 1, 6, 0, 7, 0},
		// a dynamic store overwritten by a static one, then read back
		{0, 0, 1, 2, 1, 1, 0, 1, 2, 2, 2, 0, 1, 6, 0},
		// "k0" stored with its cached hash, read and overwritten bare
		// (key byte 145), read back both ways
		{0, 0, 1, 2, 7, 2, 0, 145, 1, 0, 145, 2, 9, 3, 0, 1, 2, 0, 145},
		// two appends, a context switch, one more append, foreach
		{4, 1, 2, 1, 4, 1, 4, 9, 9, 0, 4, 1, 2, 3, 6, 1},
		// a long (bypassing) key, free + new, another long key, a get
		{0, 2, 2, 4, 33, 8, 2, 0, 2, 5, 5, 1, 2, 2, 2, 6, 2},
		// an array value pointing at another map, then that map freed
		{0, 0, 0, 5, 1, 8, 1, 2, 0, 0, 6, 0},
		// six int keys into one map (evictions, RTT overflow), an
		// unset, an append, foreach
		{0, 0, 0, 2, 1, 0, 0, 3, 2, 2, 0, 0, 6, 2, 3, 0, 0, 9, 2, 4,
			0, 0, 12, 2, 5, 0, 0, 15, 2, 6, 5, 0, 3, 4, 0, 2, 7, 6, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		soft := newSeqCore(Features{}, sim.Mitigations{})
		feats := AllAccelerators()
		feats.HTConfig = hashtable.Config{Entries: 8, ProbeWindow: 2, MaxKeyBytes: 24, RTTPointers: 4}
		hard := newSeqCore(feats, sim.AllMitigations())
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0; step++ {
			op, slot := next()%10, int(next()%3)
			var a, b string
			switch op {
			case 0, 1: // store: dynamic, or static (inline-cache specialized)
				k, vk, vb := seqKey(next()), next(), next()
				soft.cpu.HashStore("f", soft.maps[slot], k, soft.value(vk, vb), op == 1)
				hard.cpu.HashStore("f", hard.maps[slot], respell(k), hard.value(vk, vb), op == 1)
			case 2, 3: // lookup: dynamic, or static
				k := seqKey(next())
				a = soft.get(slot, k, op == 3)
				b = hard.get(slot, respell(k), op == 3)
			case 4: // append ($a[] = v)
				vk, vb := next(), next()
				a = soft.appendTo(slot, vk, vb)
				b = hard.appendTo(slot, vk, vb)
			case 5: // unset
				k := seqKey(next())
				a = fmt.Sprint(soft.cpu.HashDelete("f", soft.maps[slot], k))
				b = fmt.Sprint(hard.cpu.HashDelete("f", hard.maps[slot], respell(k)))
			case 6: // foreach
				a = soft.foreach(slot)
				b = hard.foreach(slot)
			case 7: // count()
				a = fmt.Sprint(soft.cpu.HashSize("f", soft.maps[slot]))
				b = fmt.Sprint(hard.cpu.HashSize("f", hard.maps[slot]))
			case 8: // free the map, a new one takes its slot
				soft.renew(slot)
				hard.renew(slot)
			case 9:
				soft.cpu.ContextSwitch()
				hard.cpu.ContextSwitch()
			}
			if a != b {
				t.Fatalf("step %d (op %d on map slot %d): software core %s, accelerated core %s", step, op, slot, a, b)
			}
		}
		for slot := range soft.maps {
			if a, b := soft.foreach(slot), hard.foreach(slot); a != b {
				t.Fatalf("final contents of map slot %d: software core %s, accelerated core %s", slot, a, b)
			}
		}
	})
}

// seqCore is one side of FuzzHashSequence: a core, its three live maps,
// and every map it ever created, by creation index.
type seqCore struct {
	cpu     *CPU
	maps    [3]*hashmap.Map
	created map[*hashmap.Map]int
	all     []*hashmap.Map
}

func newSeqCore(feats Features, mit sim.Mitigations) *seqCore {
	meter := sim.NewMeter(sim.DefaultCostModel())
	meter.Mit = mit
	c := &seqCore{cpu: New(meter, feats, 0), created: map[*hashmap.Map]int{}}
	for i := range c.maps {
		c.renew(i)
	}
	return c
}

func (c *seqCore) renew(slot int) {
	if old := c.maps[slot]; old != nil {
		c.cpu.HashFree("f", old)
	}
	m := c.cpu.NewMap()
	c.created[m] = len(c.all)
	c.all = append(c.all, m)
	c.maps[slot] = m
}

// seqKey decodes a key byte: small ints (negative included), short
// strings, and strings too long for the hardware table. A string key is
// spelled with its cached hash (StrKey) when the top bit is clear and
// without it (Key{Str: s}) when it is set, so every sequence mixes the
// two spellings of one key.
func seqKey(b byte) hashmap.Key {
	var s string
	switch b % 3 {
	case 0:
		return hashmap.IntKey(int64(b/3%8) - 2)
	case 1:
		s = fmt.Sprintf("k%d", b/3%6)
	default:
		s = strings.Repeat("long-key-", 3) + fmt.Sprint(b/3%4)
	}
	if b&0x80 != 0 {
		return hashmap.Key{Str: s}
	}
	return hashmap.StrKey(s)
}

// respell gives a string key the other spelling: the accelerated core
// is handed every key the way the software core is not.
func respell(k hashmap.Key) hashmap.Key {
	switch {
	case k.IsInt:
		return k
	case k.Int != 0:
		return hashmap.Key{Str: k.Str}
	}
	return hashmap.StrKey(k.Str)
}

// value decodes a value of every kind; an array value points at one of
// the maps this core created.
func (c *seqCore) value(kind, b byte) hashmap.Value {
	switch kind % 6 {
	case 1:
		return hashmap.Value{K: hashmap.KindBool, N: int64(b & 1)}
	case 2:
		return hashmap.IntValue(int64(b) - 128)
	case 3:
		return hashmap.Value{K: hashmap.KindFloat, N: int64(math.Float64bits(float64(b) / 4))}
	case 4:
		if b&1 == 1 {
			return hashmap.StrValue(strings.Repeat("v", int(b)))
		}
		return hashmap.StrValue(fmt.Sprint("v", b))
	case 5:
		return hashmap.Value{K: hashmap.KindArray, A: c.all[int(b)%len(c.all)]}
	}
	return hashmap.Value{}
}

// show renders a value comparably across cores: an array by the creation
// index of its map.
func (c *seqCore) show(v hashmap.Value) string {
	if v.K == hashmap.KindArray {
		return fmt.Sprintf("array#%d", c.created[v.A])
	}
	return fmt.Sprintf("%d/%d/%q", v.K, v.N, v.S)
}

func (c *seqCore) get(slot int, k hashmap.Key, static bool) string {
	v, ok := c.cpu.HashGet("f", c.maps[slot], k, static)
	return fmt.Sprint(ok, " ", c.show(v))
}

// appendTo stores under the map's next automatic int key, the way the
// script engines compile `$a[] = v`, and reports the key used.
func (c *seqCore) appendTo(slot int, vk, vb byte) string {
	m := c.maps[slot]
	k := m.NextIntKey()
	c.cpu.HashStore("f", m, hashmap.IntKey(k), c.value(vk, vb), false)
	return fmt.Sprint(k, " ", m.NextIntKey())
}

func (c *seqCore) foreach(slot int) string {
	var sb strings.Builder
	c.cpu.HashForeach("f", c.maps[slot], func(k hashmap.Key, v hashmap.Value) bool {
		if k.IsInt {
			fmt.Fprintf(&sb, "%d=%s ", k.Int, c.show(v))
		} else { // a string key's Int is its hash cache, not the key
			fmt.Fprintf(&sb, "%q=%s ", k.Str, c.show(v))
		}
		return true
	})
	return sb.String()
}
