package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/arena"
	"repro/internal/cache"
	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/php"
	"repro/internal/regex"
	"repro/internal/sim"
	"repro/internal/strlib"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// simSnapshot is source B: what the simulated machine did during the
// exact pass, read from the twin. Everything in it repeats bit for bit
// for a seed. fleet holds the figures the servers' /stats also report,
// summed over backends in index order on both sides so the comparison
// is exact.
type simSnapshot struct {
	fleet struct {
		cycles       float64
		cats         sim.CategoryVec
		kinds        [trace.NumKinds]int64
		hits, misses int64
		coalesced    int64
		evictions    int64
	}
	energy     float64
	charges    int64
	accelCalls map[sim.AccelKind]int64
	fns        []*sim.FnStats // sorted by name, then category
	mix        opMix
}

func (t *twin) simSnapshot() (simSnapshot, error) {
	var s simSnapshot
	if t.mix.lost {
		return s, fmt.Errorf("twin: a request recorded more than %d trace events; its string and regex bytes are unknown", serverTraceBuf)
	}
	s.mix = *t.mix
	all := sim.NewMeter(sim.DefaultCostModel())
	for _, b := range t.backends {
		ps := b.pool.Snapshot()
		if b.cache != nil {
			b.cache.MergeMeter(ps.Meter)
			cs := b.cache.Stats()
			s.fleet.hits += cs.Hits
			s.fleet.misses += cs.Misses
			s.fleet.coalesced += cs.Coalesced
			s.fleet.evictions += cs.Evictions
		}
		cats := ps.Meter.CategoryCyclesVec()
		s.fleet.cycles += cats.Total()
		s.fleet.cats = s.fleet.cats.Add(cats)
		all.Merge(ps.Meter)
		kinds := ps.Trace.KindTotals()
		for k := range kinds {
			s.fleet.kinds[k] += kinds[k]
		}
	}
	s.fns = all.Functions()
	sort.Slice(s.fns, func(i, j int) bool {
		if s.fns[i].Name != s.fns[j].Name {
			return s.fns[i].Name < s.fns[j].Name
		}
		return s.fns[i].Category < s.fns[j].Category
	})
	// Meter.TotalEnergy sums in map order, which rounds differently run
	// to run; summing the sorted rows repeats exactly.
	for _, f := range s.fns {
		s.charges += f.Calls
		s.energy += f.Energy(&all.Model)
	}
	s.accelCalls = map[sim.AccelKind]int64{}
	for _, k := range sim.AccelKinds() {
		s.accelCalls[k] = all.AccelCalls(k)
	}
	return s, nil
}

// checkAgainst demands that the servers reported the very numbers the
// twin computed for the same request sequence.
func (s simSnapshot) checkAgainst(sc scrape) error {
	var cycles, energy float64
	var cats sim.CategoryVec
	var hits, misses, coalesced, evictions int64
	for _, st := range sc.stats {
		cycles += st.SimCycles
		energy += st.SimEnergyPJ
		for _, c := range sim.Categories() {
			cats[c] += st.SimCategoryCycles[c.String()]
		}
		if st.Cache != nil {
			hits += st.Cache.Hits
			misses += st.Cache.Misses
			coalesced += st.Cache.Coalesced
			evictions += st.Cache.Evictions
		}
	}
	if cycles != s.fleet.cycles || cats != s.fleet.cats {
		return fmt.Errorf("simulated clock differs: server cycles %v cats %v, twin cycles %v cats %v",
			cycles, cats, s.fleet.cycles, s.fleet.cats)
	}
	// The server's energy is a map-order float sum: equal up to rounding.
	if math.Abs(energy-s.energy) > 1e-9*s.energy {
		return fmt.Errorf("simulated energy differs: server %v, twin %v", energy, s.energy)
	}
	if hits != s.fleet.hits || misses != s.fleet.misses || coalesced != s.fleet.coalesced || evictions != s.fleet.evictions {
		return fmt.Errorf("cache counts differ: server %d/%d/%d/%d, twin %d/%d/%d/%d (hits/misses/coalesced/evictions)",
			hits, misses, coalesced, evictions, s.fleet.hits, s.fleet.misses, s.fleet.coalesced, s.fleet.evictions)
	}
	for k := 0; k < trace.NumKinds; k++ {
		var server int64
		for _, fams := range sc.metrics {
			server += int64(obs.FindFamily(fams, "phpserve_trace_events_total").Sum(obs.Label{Name: "kind", Value: trace.Kind(k).String()}))
		}
		if server != s.fleet.kinds[k] {
			return fmt.Errorf("trace %s events differ: server %d, twin %d", trace.Kind(k), server, s.fleet.kinds[k])
		}
	}
	return nil
}

// metrics renders source B per request.
func (s simSnapshot) metrics(requests int) map[string]float64 {
	n := float64(requests)
	k := s.fleet.kinds
	hashOps := k[trace.KindHashGet] + k[trace.KindHashSet] + k[trace.KindHashDelete] + k[trace.KindHashIterate]
	var events int64
	for _, c := range k {
		events += c
	}
	var strBytes uint64
	for _, b := range s.mix.strBytes {
		strBytes += b
	}
	m := map[string]float64{
		"sim.cycles_per_req":             s.fleet.cycles / n,
		"sim.energy_pj_per_req":          s.energy / n,
		"sim.cat.hash_cycles_per_req":    s.fleet.cats[sim.CatHash] / n,
		"sim.cat.heap_cycles_per_req":    s.fleet.cats[sim.CatHeap] / n,
		"sim.cat.string_cycles_per_req":  s.fleet.cats[sim.CatString] / n,
		"sim.cat.regex_cycles_per_req":   s.fleet.cats[sim.CatRegex] / n,
		"sim.cat.other_cycles_per_req":   s.fleet.cats[sim.CatOther] / n,
		"sim.fn_count":                   float64(len(s.fns)),
		"sim.charges_per_req":            float64(s.charges) / n,
		"isa.accel_calls_per_req.hash":   float64(s.accelCalls[sim.AccelHashTable]) / n,
		"isa.accel_calls_per_req.heap":   float64(s.accelCalls[sim.AccelHeapMgr]) / n,
		"isa.accel_calls_per_req.string": float64(s.accelCalls[sim.AccelString]) / n,
		"isa.accel_calls_per_req.regex":  float64(s.accelCalls[sim.AccelRegex]) / n,
		"vm.hash_ops_per_req":            float64(hashOps) / n,
		"vm.alloc_ops_per_req":           float64(k[trace.KindAlloc]+k[trace.KindFree]) / n,
		"vm.str_ops_per_req":             float64(k[trace.KindStringOp]) / n,
		"vm.str_bytes_per_req":           float64(strBytes) / n,
		"vm.regex_scans_per_req":         float64(k[trace.KindRegexScan]) / n,
		"vm.regex_bytes_per_req":         float64(s.mix.regexBytes) / n,
		"trace.events_per_req":           float64(events) / n,
		"cache.hits":                     float64(s.fleet.hits),
		"cache.misses":                   float64(s.fleet.misses),
		"cache.coalesced":                float64(s.fleet.coalesced),
		"cache.evictions":                float64(s.fleet.evictions),
	}
	if lookups := s.fleet.hits + s.fleet.misses + s.fleet.coalesced; lookups > 0 {
		m["cache.hit_ratio"] = float64(s.fleet.hits) / float64(lookups)
	}
	return m
}

// medianCost times rounds of work and returns the median cost per unit,
// in nanoseconds; round reports how many units it processed.
func medianCost(rounds int, round func() float64) float64 {
	costs := make([]float64, rounds)
	for i := range costs {
		t0 := time.Now()
		units := round()
		costs[i] = float64(time.Since(t0)) / units
	}
	return median(costs)
}

// The fixed pattern set of the regex unit costs: the Fig. 11 texturize
// chain and the Fig. 13 author-URL scan, i.e. the patterns WordPress
// itself runs.
var regexPatterns = []string{`(?<=\w)'`, `"`, "\n", `<`, `https://[a-z]+/\?author=[a-z0-9]+`}

// needles are the apps' shortcode scans (strpos-style, mostly absent
// from the subject, so the whole subject is scanned).
var needles = [][]byte{[]byte("[gallery"), []byte("[caption"), []byte("[embed"), []byte("<!--more-->"), []byte("{{Infobox"), []byte("[[Category:")}

// strOps maps a strlib op code to the isa.CPU entry point it reaches.
// i varies the needle between calls.
var strOps = map[strlib.Op]func(cpu *isa.CPU, seg []byte, i int){
	strlib.OpFind: func(c *isa.CPU, b []byte, i int) { c.StrFind("string_find", b, needles[i%len(needles)]) },
	strlib.OpReplace: func(c *isa.CPU, b []byte, _ int) {
		c.StrReplace("string_replace_impl", b, []byte("the "), []byte("THE "))
	},
	strlib.OpCompare:     func(c *isa.CPU, b []byte, _ int) { c.StrCompare("string_compare", b, b) },
	strlib.OpTrim:        func(c *isa.CPU, b []byte, _ int) { c.StrTrim("string_trim", b) },
	strlib.OpToUpper:     func(c *isa.CPU, b []byte, _ int) { c.StrToUpper("strtoupper_impl", b) },
	strlib.OpToLower:     func(c *isa.CPU, b []byte, _ int) { c.StrToLower("strtolower_impl", b) },
	strlib.OpTranslate:   func(c *isa.CPU, b []byte, _ int) { c.StrTranslate("strtr_impl", b, []byte("ae"), []byte("AE")) },
	strlib.OpHTMLSpecial: func(c *isa.CPU, b []byte, _ int) { c.StrHTMLEscape("htmlspecialchars", b) },
	strlib.OpAddSlashes:  func(c *isa.CPU, b []byte, _ int) { c.StrAddSlashes("addcslashes", b) },
	strlib.OpNL2BR:       func(c *isa.CPU, b []byte, _ int) { c.StrNL2BR("nl2br", b) },
	strlib.OpConcat:      func(c *isa.CPU, b []byte, _ int) { c.StrConcat("concat_builder", b[:len(b)/2], b[len(b)/2:]) },
}

// segments cuts the pages into pieces of the given size (at least one
// byte, at most a page): the subjects of the unit-cost loops have the
// length the workload's own calls have.
func segments(pages [][]byte, size int) [][]byte {
	size = max(size, 1)
	var out [][]byte
	for _, p := range pages {
		for off := 0; off+size <= len(p) && len(out) < 256; off += size {
			out = append(out, p[off:off+size])
		}
	}
	if len(out) == 0 {
		out = append(out, pages[0])
	}
	return out
}

// shortKeys are dynamic hash keys in the shape of the apps' metadata
// keys, all at most 24 bytes (the size the hardware hash table accepts).
func shortKeys() []hashmap.Key {
	vars := []string{"post_title", "post_author", "post_date", "comment_count", "category_name", "locale_code"}
	keys := make([]hashmap.Key, 0, 96)
	for i := 0; i < 96; i++ {
		keys = append(keys, hashmap.StrKey(fmt.Sprintf("meta_%s_%d", vars[i%len(vars)], i%48)))
	}
	return keys
}

const costRounds = 7

// cpuCosts times the isa.CPU entry points for the workload's Features
// over its own rendered pages: string ns/KB (each op the workload's
// trace shows, on subjects of that op's mean length, weighted by the
// op's share of string bytes), regex ns/KB, hash get/set ns and
// malloc+free ns.
func cpuCosts(cfg vm.Config, mix opMix, pages [][]byte) (strNsKB, reNsKB, getNs, setNs, mallocFreeNs float64, err error) {
	cfg.TraceCapacity = -1
	rt := vm.New(cfg)
	cpu := rt.CPU()

	var weighted, weight float64
	for op, run := range strOps {
		calls, bytes := mix.strCalls[op], mix.strBytes[op]
		if calls == 0 || bytes == 0 {
			continue
		}
		segs := segments(pages, int(bytes/calls))
		cost := medianCost(costRounds, func() float64 {
			rt.Arena().Reset()
			var kb float64
			for i, seg := range segs {
				run(cpu, seg, i)
				kb += float64(len(seg)) / 1024
			}
			return kb
		})
		weighted += cost * float64(bytes)
		weight += float64(bytes)
	}
	if weight > 0 {
		strNsKB = weighted / weight
	}

	if mix.regexScans > 0 {
		res := make([]*regex.Regex, len(regexPatterns))
		for i, pat := range regexPatterns {
			if res[i], err = cpu.RegexCompile("pcre_compile", pat); err != nil {
				return
			}
		}
		segs := segments(pages, int(mix.regexBytes/mix.regexScans))
		repl := []byte("&#8221;")
		reNsKB = medianCost(costRounds, func() float64 {
			rt.Arena().Reset()
			var kb float64
			for i, seg := range segs {
				re := res[i%len(res)]
				cpu.RegexFindAll("preg_match_all", re, seg)
				cpu.RegexReplaceAll("preg_replace_impl", re, seg, repl)
				_, hv := cpu.RegexSieve("pcre_exec", re, seg)
				cpu.RegexShadow("pcre_exec", re, seg, hv)
				kb += 4 * float64(len(seg)) / 1024
			}
			return kb
		})
	}

	keys := shortKeys()
	m := cpu.NewMap()
	val := any("v")
	setNs = medianCost(costRounds, func() float64 {
		for r := 0; r < 200; r++ {
			for _, k := range keys {
				cpu.HashSet("hphp_array_set", m, k, val, false)
			}
		}
		return float64(200 * len(keys))
	})
	getNs = medianCost(costRounds, func() float64 {
		for r := 0; r < 200; r++ {
			for _, k := range keys {
				cpu.HashGet("hphp_array_get", m, k, false)
			}
		}
		return float64(200 * len(keys))
	})

	blocks := make([]heap.Block, 0, heap.NumClasses())
	mallocFreeNs = medianCost(costRounds, func() float64 {
		for r := 0; r < 500; r++ {
			blocks = blocks[:0]
			for c := 0; c < heap.NumClasses(); c++ {
				blocks = append(blocks, cpu.Malloc("smart_malloc", heap.ClassSize(c)))
			}
			for _, b := range blocks {
				cpu.Free("smart_free", b)
			}
		}
		return float64(500 * heap.NumClasses())
	})
	return
}

// unitCosts is source C minus the spans of the traced pass: every layer
// timed in isolation through its public API, on this workload's data.
func unitCosts(spec workloadSpec, t *twin, snap simSnapshot, pages [][]byte) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()

	str, re, get, set, mf, err := cpuCosts(vmConfig(spec.Config), snap.mix, pages)
	if err != nil {
		return nil, err
	}
	if spec.Config == "accelerated" {
		m["core.straccel.ns_per_kb"], m["core.regexaccel.ns_per_kb"] = str, re
		m["core.hashtable.get_ns"], m["core.hashtable.set_ns"] = get, set
		m["core.heapmgr.malloc_free_ns"] = mf
	} else {
		m["strlib.ns_per_kb"], m["regex.ns_per_kb"] = str, re
		m["hashmap.get_ns"], m["hashmap.set_ns"] = get, set
		m["heap.malloc_free_ns"] = mf
	}

	pool := t.backends[0].pool
	m["workload.acquire_ns"] = medianCost(costRounds, func() float64 {
		for i := 0; i < 5000; i++ {
			w, _ := pool.AcquireCtx(ctx)
			pool.Release(w)
		}
		return 5000
	})

	meter := sim.NewMeter(sim.DefaultCostModel())
	m["sim.charge_ns"] = medianCost(costRounds, func() float64 {
		for r := 0; r < 50; r++ {
			for _, f := range snap.fns {
				meter.AddUops(f.Name, f.Category, 12)
			}
		}
		return float64(50 * len(snap.fns))
	})

	rec := trace.NewRecorder(serverTraceBuf)
	ev := trace.Event{Kind: trace.KindStringOp, Fn: "htmlspecialchars", A: 3, B: 900}
	m["trace.record_ns"] = medianCost(costRounds, func() float64 {
		for i := 0; i < 20000; i++ {
			rec.Record(ev)
		}
		return 20000
	})

	// One request's arena use: a buffer per string op, of their mean size.
	var strCalls, strBytes uint64
	for op := range snap.mix.strCalls {
		strCalls += snap.mix.strCalls[op]
		strBytes += snap.mix.strBytes[op]
	}
	m["arena.reset_ns"] = arenaResetNs(int(strCalls/exactRequests)+1, int(strBytes/max(strCalls, 1))+1)

	col := obs.NewCollector(0, nil, nil)
	sp := obs.Span{Worker: 0, Wall: 150 * time.Microsecond}
	meta := obs.RequestMeta{Path: "/", Status: 200}
	m["obs.observe_ns"] = medianCost(costRounds, func() float64 {
		for i := 0; i < 10000; i++ {
			col.ObserveHTTP(sp, 7800, meta)
		}
		return 10000
	})

	if spec.Cluster {
		c := cache.New(cache.Config{Capacity: clusterCache, Shards: cache.DefaultShards})
		var n int
		fill := func() ([]byte, error) { return pages[n%len(pages)], nil }
		m["cache.getorfill_fill_ns"] = medianCost(costRounds, func() float64 {
			for n = 0; n < clusterPages; n++ {
				c.GetOrFill(ctx, t.keys[n], fill)
			}
			return clusterPages
		})
		// The fill rounds leave the last pages resident; hit on those.
		var resident []string
		for n = clusterPages - 1; n >= 0 && len(resident) < 8; n-- {
			if _, out, _ := c.GetOrFill(ctx, t.keys[n], fill); out == cache.Hit {
				resident = append(resident, t.keys[n])
			}
		}
		if len(resident) == 0 {
			return nil, fmt.Errorf("unit costs: no resident cache key to hit")
		}
		m["cache.getorfill_hit_ns"] = medianCost(costRounds, func() float64 {
			for i := 0; i < 4000; i++ {
				c.GetOrFill(ctx, resident[i%len(resident)], fill)
			}
			return 4000
		})
		m["cache.ring_owner_ns"] = medianCost(costRounds, func() float64 {
			for r := 0; r < 8; r++ {
				for _, k := range t.keys {
					t.ring.Owner(k)
				}
			}
			return float64(8 * len(t.keys))
		})
	}

	if spec.Tier != "" {
		var perr error
		m["php.parse_compile_us"] = medianCost(costRounds, func() float64 {
			prog, err := php.Parse(workload.BlogScript)
			if err == nil {
				_, err = php.Compile(prog)
			}
			if err != nil {
				perr = err
			}
			return 1
		}) / 1e3
		if perr != nil {
			return nil, perr
		}
		for _, tier := range []struct {
			name string
			mode php.TierMode
		}{{"php.run_interp_us", php.TierInterp}, {"php.run_bytecode_us", php.TierBytecode}} {
			app := workload.NewBlogScript()
			if err := app.SetScriptTier(tier.mode, php.DefaultTierPolicy()); err != nil {
				return nil, err
			}
			cfg := vmConfig(spec.Config)
			cfg.TraceCapacity = serverTraceBuf
			rt := vm.New(cfg)
			page := 0
			run := func() float64 {
				for i := 0; i < 100; i++ {
					page++
					app.ServePage(rt, page)
				}
				return 100
			}
			run() // warm the inline caches
			m[tier.name] = medianCost(costRounds, run) / 1e3
		}
	}
	return m, nil
}

// arenaResetNs times Arena.Reset alone, each time after a request's
// worth of allocations.
func arenaResetNs(allocs, size int) float64 {
	ar := arena.New(0, 0)
	costs := make([]float64, costRounds)
	for i := range costs {
		var spent time.Duration
		for r := 0; r < 200; r++ {
			for a := 0; a < allocs; a++ {
				ar.Make(size)
			}
			t0 := time.Now()
			ar.Reset()
			spent += time.Since(t0)
		}
		costs[i] = float64(spent) / 200
	}
	return median(costs)
}

// shares multiplies source-B counts by source-C unit costs and divides
// by the measured render time: which layer does most of the work. The
// counts are per render (on cluster_cache only misses render), the unit
// costs come from m.
func shares(spec workloadSpec, snap simSnapshot, m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	renderNs := m["workload.render_us"] * 1e3
	renders := float64(exactRequests)
	if spec.Cluster {
		renders = float64(snap.fleet.misses)
	}
	if renderNs <= 0 || renders <= 0 {
		return out
	}
	str, re, heapL, hashL := "strlib", "regex", "heap", "hashmap"
	if spec.Config == "accelerated" {
		str, re, heapL, hashL = "core.straccel", "core.regexaccel", "core.heapmgr", "core.hashtable"
	}
	k := snap.fleet.kinds
	var strBytes, events float64
	for _, b := range snap.mix.strBytes {
		strBytes += float64(b)
	}
	for _, n := range k {
		events += float64(n)
	}
	perRender := func(total, unitNs float64) float64 { return total / renders * unitNs / renderNs }
	out["share."+str] = perRender(strBytes/1024, m[str+".ns_per_kb"])
	out["share."+re] = perRender(float64(snap.mix.regexBytes)/1024, m[re+".ns_per_kb"])
	out["share."+hashL] = perRender(float64(k[trace.KindHashGet]), m[hashL+".get_ns"]) + perRender(float64(k[trace.KindHashSet]), m[hashL+".set_ns"])
	out["share."+heapL] = perRender(float64(k[trace.KindAlloc]+k[trace.KindFree])/2, m[heapL+".malloc_free_ns"])
	out["share.sim"] = perRender(float64(snap.charges), m["sim.charge_ns"])
	out["share.trace"] = perRender(events, m["trace.record_ns"])
	out["share.arena"] = m["arena.reset_ns"] / renderNs
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	out["share.unattributed"] = 1 - sum
	return out
}
