package isa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/sim"
)

// iv and sv build the int and string values the tests store.
func iv(i int) hashmap.Value    { return hashmap.IntValue(int64(i)) }
func sv(s string) hashmap.Value { return hashmap.StrValue(s) }

func newCPU(feats Features) *CPU {
	return New(sim.NewMeter(sim.DefaultCostModel()), feats, 0)
}

func TestSoftwareCoreHasNoAccelerators(t *testing.T) {
	c := newCPU(Features{})
	if c.HT != nil || c.HM != nil || c.SA != nil || c.RA != nil {
		t.Errorf("zero Features should build a plain software core")
	}
}

func TestAllAcceleratorsPresent(t *testing.T) {
	c := newCPU(AllAccelerators())
	if c.HT == nil || c.HM == nil || c.SA == nil || c.RA == nil {
		t.Errorf("AllAccelerators should enable everything")
	}
}

func TestHashOpsEquivalentAcrossCores(t *testing.T) {
	run := func(c *CPU) []string {
		m := c.NewMap()
		var log []string
		for i := 0; i < 50; i++ {
			k := hashmap.StrKey(fmt.Sprintf("key%d", i%17))
			c.HashStore("wp_set", m, k, iv(i), false)
			if v, ok := c.HashGet("wp_get", m, k, false); ok {
				log = append(log, fmt.Sprint(v))
			}
		}
		c.HashForeach("wp_each", m, func(k hashmap.Key, v hashmap.Value) bool {
			log = append(log, fmt.Sprintf("%s=%v", k.Str, v))
			return true
		})
		c.HashDelete("wp_del", m, hashmap.StrKey("key3"))
		if _, ok := c.HashGet("wp_get", m, hashmap.StrKey("key3"), false); ok {
			log = append(log, "DELETED-KEY-VISIBLE")
		}
		c.HashFree("wp_free", m)
		return log
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(AllAccelerators()))
	if fmt.Sprint(sw) != fmt.Sprint(hw) {
		t.Errorf("accelerated core changed semantics:\n sw %v\n hw %v", sw, hw)
	}
}

func TestHashAccelerationReducesUops(t *testing.T) {
	run := func(c *CPU) float64 {
		rng := rand.New(rand.NewSource(21))
		m := c.NewMap()
		for i := 0; i < 2000; i++ {
			k := hashmap.StrKey(fmt.Sprintf("k%d", rng.Intn(20)))
			if rng.Intn(5) == 0 {
				c.HashStore("f", m, k, iv(i), false)
			} else {
				c.HashGet("f", m, k, false)
			}
		}
		return c.Meter.TotalCycles()
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(Features{HashTable: true}))
	if hw >= sw*0.5 {
		t.Errorf("hash table should cut hash cycles substantially: sw %.0f hw %.0f", sw, hw)
	}
}

func TestInlineCachingShortCircuitsStaticKeys(t *testing.T) {
	c := newCPU(Features{})
	c.Meter.Mit = sim.AllMitigations()
	m := c.NewMap()
	c.HashStore("f", m, hashmap.StrKey("static_prop"), iv(1), true)
	c.HashGet("f", m, hashmap.StrKey("static_prop"), true)
	total := c.Meter.TotalUops()
	want := 2 * c.Meter.Model.ICHitUops
	if total != want {
		t.Errorf("IC path uops = %.1f, want %.1f", total, want)
	}
}

func TestHeapOpsEquivalentAndCheaper(t *testing.T) {
	run := func(c *CPU) float64 {
		rng := rand.New(rand.NewSource(9))
		var live []heap.Block
		for i := 0; i < 5000; i++ {
			if len(live) < 16 || rng.Intn(2) == 0 {
				live = append(live, c.Malloc("smart_malloc", 16+rng.Intn(8)*16))
			} else {
				j := rng.Intn(len(live))
				c.Free("smart_free", live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return c.Meter.TotalCycles()
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(Features{HeapManager: true}))
	if hw >= sw*0.3 {
		t.Errorf("heap manager should dominate malloc/free cost: sw %.0f hw %.0f", sw, hw)
	}
}

func TestStringOpsEquivalentAcrossCores(t *testing.T) {
	subject := []byte(`The <b>quick</b> "brown" fox's   tail `)
	run := func(c *CPU) string {
		var sb strings.Builder
		sb.Write(c.StrToUpper("f", subject))
		sb.Write(c.StrToLower("f", subject))
		sb.Write(c.StrHTMLEscape("f", subject))
		sb.Write(c.StrTrim("f", subject))
		sb.Write(c.StrReplace("f", subject, []byte("fox"), []byte("wolf")))
		sb.Write(c.StrTranslate("f", subject, []byte("aeiou"), []byte("AEIOU")))
		fmt.Fprint(&sb, c.StrFind("f", subject, []byte("brown")))
		fmt.Fprint(&sb, c.StrCompare("f", subject, []byte("The")))
		sb.Write(c.StrConcat("f", subject, []byte("!")))
		return sb.String()
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(AllAccelerators()))
	if sw != hw {
		t.Errorf("string results differ:\n sw %q\n hw %q", sw, hw)
	}
}

func TestStringAccelerationReducesCycles(t *testing.T) {
	subject := []byte(strings.Repeat("plain text without anything special ", 300))
	run := func(c *CPU) float64 {
		for i := 0; i < 50; i++ {
			c.StrToUpper("f", subject)
			c.StrFind("f", subject, []byte("needle"))
		}
		return c.Meter.TotalCycles()
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(Features{StringAccel: true}))
	if hw >= sw {
		t.Errorf("string accelerator should win on large subjects: sw %.0f hw %.0f", sw, hw)
	}
}

func TestRegexSieveShadowEquivalence(t *testing.T) {
	content := []byte(strings.Repeat("regular text segment ", 40) + `with 'quotes' and <tags> sprinkled`)
	swCPU := newCPU(Features{})
	hwCPU := newCPU(AllAccelerators())

	for _, c := range []*CPU{swCPU, hwCPU} {
		sieve, err := c.RegexCompile("pcre", `<`)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := c.RegexCompile("pcre", `'`)
		if err != nil {
			t.Fatal(err)
		}
		ms, hv := c.RegexSieve("f", sieve, content)
		ms2 := c.RegexShadow("f", shadow, content, hv)
		want := sieve.FindAll(content)
		if fmt.Sprint(ms) != fmt.Sprint(want) {
			t.Errorf("sieve matches differ from plain scan")
		}
		want2 := shadow.FindAll(content)
		if fmt.Sprint(ms2) != fmt.Sprint(want2) {
			t.Errorf("shadow matches differ from plain scan")
		}
	}
}

func TestRegexReuseReducesUops(t *testing.T) {
	pattern := `https://[a-z]+/\?author=[a-z0-9]+`
	run := func(c *CPU) float64 {
		re, err := c.RegexCompile("pcre", pattern)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			url := []byte(fmt.Sprintf("https://localhost/?author=name%d", i%10))
			if end := c.RegexScanReuse("f", re, 0x400, url); end != len(url) {
				t.Fatalf("scan end = %d, want %d", end, len(url))
			}
		}
		return c.Meter.TotalUops()
	}
	sw := run(newCPU(Features{}))
	hw := run(newCPU(Features{RegexAccel: true}))
	if hw >= sw*0.6 {
		t.Errorf("content reuse should skip most prefix work: sw %.0f hw %.0f", sw, hw)
	}
}

func TestContextSwitchProtocol(t *testing.T) {
	c := newCPU(AllAccelerators())
	m := c.NewMap()
	c.HashStore("f", m, hashmap.StrKey("pending"), iv(1), false)
	b := c.Malloc("f", 64)
	c.Free("f", b)

	c.ContextSwitch()

	// Hardware state flushed: the software map sees the pair.
	if v, ok := m.Get(hashmap.StrKey("pending")); !ok || v != iv(1) {
		t.Errorf("context switch lost dirty hash entry: %v %v", v, ok)
	}
	if n := c.HM.Flush(); n != 0 {
		t.Errorf("heap manager lists not flushed: %d blocks left", n)
	}
	if c.SA.Stats().ConfigSaves != 1 || c.SA.Stats().ConfigLoads != 1 {
		t.Errorf("string accelerator config not saved/restored")
	}
	// Post-switch operation still works, and starts from an empty table.
	hits := c.HT.Stats().GetHits
	if v, ok := c.HashGet("f", m, hashmap.StrKey("pending"), false); !ok || v != iv(1) {
		t.Errorf("post-switch access broken: %v %v", v, ok)
	}
	if c.HT.Stats().GetHits != hits {
		t.Errorf("hash table not empty after context switch: the first GET hit")
	}
}

func TestMitigationsReduceBaseline(t *testing.T) {
	run := func(mit sim.Mitigations) float64 {
		c := newCPU(Features{})
		c.Meter.Mit = mit
		m := c.NewMap()
		for i := 0; i < 500; i++ {
			c.Meter.AddRefCount(3)
			c.Meter.AddTypeCheck(2)
			c.HashGet("f", m, hashmap.StrKey("config_option"), true)
			b := c.Malloc("f", 64)
			c.Free("f", b)
		}
		return c.Meter.TotalCycles()
	}
	base := run(sim.Mitigations{})
	mitigated := run(sim.AllMitigations())
	if mitigated >= base {
		t.Errorf("mitigations should reduce cycles: %.0f vs %.0f", mitigated, base)
	}
}

func TestAccelAttributionLandsInRightCategory(t *testing.T) {
	c := newCPU(AllAccelerators())
	m := c.NewMap()
	c.HashStore("f", m, hashmap.StrKey("k"), iv(1), false)
	b := c.Malloc("g", 32)
	c.Free("g", b)
	c.StrToUpper("h", []byte("abc"))

	cc := c.Meter.CategoryCycles()
	if cc[sim.CatHash] == 0 || cc[sim.CatHeap] == 0 || cc[sim.CatString] == 0 {
		t.Errorf("category attribution missing: %v", cc)
	}
	if c.Meter.AccelCalls(sim.AccelHashTable) == 0 ||
		c.Meter.AccelCalls(sim.AccelHeapMgr) == 0 ||
		c.Meter.AccelCalls(sim.AccelString) == 0 {
		t.Errorf("accelerator call counters not incremented")
	}
}
