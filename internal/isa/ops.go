package isa

import (
	"repro/internal/core/regexaccel"
	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/regex"
	"repro/internal/sim"
)

// HV re-exports the regexp accelerator's hint vector so CPU callers only
// need to import isa.
type HV = regexaccel.HV

// --- Hash table instructions (§4.2, §4.6) ---

// HashGet performs a hash map lookup attributed to fn. static marks
// accesses with static literal key names, which inline caching / hash map
// inlining (§3) specialize to offset accesses when that mitigation is on;
// dynamic-key accesses cannot be specialized and are where the hardware
// hash table earns its keep.
func (c *CPU) HashGet(fn string, m *hashmap.Map, k hashmap.Key, static bool) (hashmap.Value, bool) {
	c.at(fn, sim.CatHash)
	if static && c.Meter.Mit.InlineCaching {
		// IC/HMI-specialized access: a type-checked offset access. The
		// load still snoops the hardware table — a dirty copy buffered
		// by an earlier dynamic-key SET is written back first so the
		// offset read sees current data.
		c.mute = true
		wb := c.HT != nil && c.HT.CoherentRead(m, k)
		v, ok := m.Get(k)
		c.mute = false
		c.Meter.AddUops(fn, sim.CatHash, c.Meter.Model.ICHitUops)
		if wb {
			c.Meter.AddUops(fn, sim.CatHash, c.Meter.Model.HTWritebackUops)
		}
		c.Meter.AddTypeCheck(1)
		return v, ok
	}
	if c.HT != nil {
		mdl := &c.Meter.Model
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, mdl.HTHashCycles+mdl.HTLookupCycles)
		v, res := c.HT.Get(m, k)
		// On a miss the zero flag branches to the software walk, which the
		// map observer charged already (the accelerator called m.Get).
		if res.EvictedDirty {
			c.Meter.AddUops(fn, sim.CatHash, mdl.HTWritebackUops)
		}
		return v, res.Found
	}
	return m.Get(k)
}

// HashSet is HashStore for a string in an interface value (anything else
// stores ""), kept only for benchmark/'s hash-store timing loop, a
// separate module compiled against this signature.
func (c *CPU) HashSet(fn string, m *hashmap.Map, k hashmap.Key, v any, static bool) {
	s, _ := v.(string)
	c.HashStore(fn, m, k, hashmap.StrValue(s), static)
}

// HashStore performs a hash map store attributed to fn.
func (c *CPU) HashStore(fn string, m *hashmap.Map, k hashmap.Key, v hashmap.Value, static bool) {
	c.at(fn, sim.CatHash)
	if static && c.Meter.Mit.InlineCaching {
		c.mute = true
		if c.HT != nil {
			// The offset store snoops the table: any cached copy is
			// invalidated so later hashtablegets refetch from memory.
			c.HT.CoherentWrite(m, k)
		}
		m.Set(k, v)
		c.mute = false
		c.Meter.AddUops(fn, sim.CatHash, c.Meter.Model.ICHitUops)
		c.Meter.AddTypeCheck(1)
		return
	}
	if c.HT != nil {
		mdl := &c.Meter.Model
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, mdl.HTHashCycles+mdl.HTLookupCycles)
		// Silence the seq-coherence read: it rides on the same access.
		c.mute = true
		res := c.HT.Set(m, k, v)
		c.mute = false
		if res.EvictedDirty {
			c.Meter.AddUops(fn, sim.CatHash, mdl.HTWritebackUops)
		}
		return
	}
	m.Set(k, v)
}

// HashDelete removes a key (PHP unset).
func (c *CPU) HashDelete(fn string, m *hashmap.Map, k hashmap.Key) bool {
	c.at(fn, sim.CatHash)
	if c.HT != nil {
		mdl := &c.Meter.Model
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, mdl.HTHashCycles+mdl.HTLookupCycles)
		return c.HT.Delete(m, k)
	}
	return m.Delete(k)
}

// HashForeach iterates the map in insertion order.
func (c *CPU) HashForeach(fn string, m *hashmap.Map, f func(k hashmap.Key, v hashmap.Value) bool) {
	c.at(fn, sim.CatHash)
	if c.HT != nil {
		mdl := &c.Meter.Model
		written := c.HT.FlushMap(m)
		c.Meter.AddUops(fn, sim.CatHash, float64(written)*mdl.HTWritebackUops)
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, float64(written)*mdl.HTLookupCycles)
		m.Foreach(f)
		return
	}
	m.Foreach(f)
}

// HashSize reads the map's element count (PHP count() and array
// truthiness). With the hardware table present, buffered SET inserts
// have not reached the software size field yet, so the read first
// flushes the map's dirty pairs.
func (c *CPU) HashSize(fn string, m *hashmap.Map) int {
	c.at(fn, sim.CatHash)
	if c.HT != nil {
		mdl := &c.Meter.Model
		written := c.HT.FlushMap(m)
		c.Meter.AddUops(fn, sim.CatHash, float64(written)*mdl.HTWritebackUops)
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, float64(written)*mdl.HTLookupCycles)
	}
	return m.Size()
}

// HashFree deallocates a hash map (the map structure itself is freed by
// software; the accelerator just invalidates its entries through the
// RTT).
func (c *CPU) HashFree(fn string, m *hashmap.Map) {
	c.at(fn, sim.CatHash)
	if c.HT != nil {
		res := c.HT.Free(m)
		cycles := float64(res.Invalidated) * c.Meter.Model.HTLookupCycles
		if res.Scanned {
			cycles += float64(c.HT.Config().Entries) / 64 // burst scan
		}
		c.Meter.AddAccel(fn, sim.CatHash, sim.AccelHashTable, cycles+1)
	}
}

// --- Heap manager instructions (§4.3, §4.6) ---

// Malloc allocates size bytes attributed to fn.
func (c *CPU) Malloc(fn string, size int) heap.Block {
	c.at(fn, sim.CatHeap)
	if c.HM != nil {
		mdl := &c.Meter.Model
		b, res := c.HM.Malloc(size)
		if res.Bypass {
			// Comparator rejected the size; the software malloc ran and the
			// heap observer charged it.
			return b
		}
		c.Meter.AddAccel(fn, sim.CatHeap, sim.AccelHeapMgr, mdl.HMCycles)
		if !res.Hit {
			c.Meter.AddUops(fn, sim.CatHeap, mdl.HMMissUops)
		}
		return b
	}
	return c.Alloc.Alloc(size)
}

// Free releases a block attributed to fn.
func (c *CPU) Free(fn string, b heap.Block) {
	c.at(fn, sim.CatHeap)
	if c.HM != nil {
		mdl := &c.Meter.Model
		res := c.HM.Free(b)
		if res.Bypass {
			return
		}
		c.Meter.AddAccel(fn, sim.CatHeap, sim.AccelHeapMgr, mdl.HMCycles)
		if res.Overflow {
			c.Meter.AddUops(fn, sim.CatHeap, mdl.HMSpillUops)
		}
		return
	}
	c.Alloc.Free(b)
}

// --- String instructions (§4.4, §4.6) ---

// saDelta runs an accelerated string operation and charges its datapath
// cycles from the accelerator's block counter delta.
func (c *CPU) saDelta(fn string, run func()) {
	mdl := &c.Meter.Model
	before := c.SA.Stats().Blocks
	run()
	blocks := c.SA.Stats().Blocks - before
	c.Meter.AddAccel(fn, sim.CatString, sim.AccelString,
		mdl.StrInvokeCycles+float64(blocks)*mdl.StrBlockCycles)
}

// StrFind locates pattern in subject (stringop[find]).
func (c *CPU) StrFind(fn string, subject, pattern []byte) int {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var pos int
		var hw bool
		c.saDelta(fn, func() { pos, hw = c.SA.Find(subject, pattern) })
		if !hw {
			c.Meter.AddUops(fn, sim.CatString, c.Meter.Model.StringCost(len(subject)))
		}
		return pos
	}
	return c.Lib.Find(subject, pattern)
}

// StrReplace substitutes old with new (stringop[replace]).
func (c *CPU) StrReplace(fn string, subject, old, new []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		var hw bool
		c.saDelta(fn, func() { out, _, hw = c.SA.Replace(subject, old, new) })
		if !hw {
			c.Meter.AddUops(fn, sim.CatString, c.Meter.Model.StringCost(len(subject)))
		}
		return out
	}
	out, _ := c.Lib.Replace(subject, old, new)
	return out
}

// StrCompare compares two strings (stringop[compare]).
func (c *CPU) StrCompare(fn string, a, b []byte) int {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var r int
		c.saDelta(fn, func() { r = c.SA.Compare(a, b) })
		return r
	}
	return c.Lib.Compare(a, b)
}

// StrToUpper upper-cases subject (stringop[toupper], a complex function
// configured via strreadconfig).
func (c *CPU) StrToUpper(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.ToUpper(subject) })
		return out
	}
	return c.Lib.ToUpper(subject)
}

// StrToLower lower-cases subject (stringop[tolower]).
func (c *CPU) StrToLower(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.ToLower(subject) })
		return out
	}
	return c.Lib.ToLower(subject)
}

// StrTranslate maps characters through from/to tables (stringop[translate]).
func (c *CPU) StrTranslate(fn string, subject, from, to []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		var hw bool
		c.saDelta(fn, func() { out, hw = c.SA.Translate(subject, from, to) })
		if !hw {
			c.Meter.AddUops(fn, sim.CatString, c.Meter.Model.StringCost(len(subject)))
		}
		return out
	}
	return c.Lib.Translate(subject, from, to)
}

// StrTrim strips default whitespace (stringop[trim]).
func (c *CPU) StrTrim(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.Trim(subject, []byte(" \t\n\r\x00\x0b")) })
		return out
	}
	return c.Lib.Trim(subject)
}

// StrNL2BR inserts HTML line breaks (stringop[nl2br]).
func (c *CPU) StrNL2BR(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.NL2BR(subject) })
		return out
	}
	return c.Lib.NL2BR(subject)
}

// StrAddSlashes backslash-escapes quotes (stringop[addslashes]).
func (c *CPU) StrAddSlashes(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.AddSlashes(subject) })
		return out
	}
	return c.Lib.AddSlashes(subject)
}

// StrHTMLEscape escapes HTML metacharacters (stringop[htmlspecialchars]).
func (c *CPU) StrHTMLEscape(fn string, subject []byte) []byte {
	c.at(fn, sim.CatString)
	if c.SA != nil {
		var out []byte
		c.saDelta(fn, func() { out = c.SA.HTMLSpecialChars(subject) })
		return out
	}
	return c.Lib.HTMLSpecialChars(subject)
}

// StrConcat joins parts; pure data movement stays on the core.
func (c *CPU) StrConcat(fn string, parts ...[]byte) []byte {
	c.at(fn, sim.CatString)
	return c.Lib.Concat(parts...)
}

// --- Regexp instructions (§4.5, §4.6) ---

// RegexCompile compiles a pattern with compile cost attribution.
func (c *CPU) RegexCompile(fn, pattern string) (*regex.Regex, error) {
	c.at(fn, sim.CatRegex)
	return regex.CompileObserved(pattern, (*regexObs)(c))
}

// RegexFindAll is the plain PCRE-style scan (no acceleration).
func (c *CPU) RegexFindAll(fn string, re *regex.Regex, content []byte) []regex.MatchRange {
	c.at(fn, sim.CatRegex)
	return re.FindAll(content)
}

// RegexReplaceAll is the plain PCRE-style replace.
func (c *CPU) RegexReplaceAll(fn string, re *regex.Regex, content, repl []byte) ([]byte, int) {
	c.at(fn, sim.CatRegex)
	return re.ReplaceAll(content, repl)
}

// RegexSieve runs the sieve regexp: a full scan plus HV generation
// through the string accelerator (regexp_sieve).
func (c *CPU) RegexSieve(fn string, re *regex.Regex, content []byte) ([]regex.MatchRange, *HV) {
	c.at(fn, sim.CatRegex)
	if c.RA == nil {
		return re.FindAll(content), nil
	}
	var hvGen func([]byte, int) []uint64
	if c.SA != nil {
		hvGen = func(b []byte, seg int) []uint64 {
			var out []uint64
			c.saDelta(fn, func() { out = c.SA.HintVector(b, seg) })
			return out
		}
	}
	ms, hv := c.RA.Sieve(re, content, hvGen)
	return ms, hv
}

// RegexShadow runs a shadow regexp under the HV (regexp_shadow). The
// regex observer is suspended during the sifted scan — shadow work is a
// single hardware-assisted pass, so the software per-call overhead is
// charged once over the bytes actually examined, not once per candidate
// window.
func (c *CPU) RegexShadow(fn string, re *regex.Regex, content []byte, hv *HV) []regex.MatchRange {
	c.at(fn, sim.CatRegex)
	if c.RA == nil || hv == nil {
		return re.FindAll(content)
	}
	c.chargeHVConsult(fn, len(content))
	saved := re.Obs
	re.Obs = nil
	ms, examined := c.RA.Shadow(re, content, hv)
	re.Obs = saved
	c.Meter.AddUops(fn, sim.CatRegex, c.Meter.Model.RegexScanCost(examined))
	return ms
}

// RegexShadowReplace replaces matches under the HV with whitespace
// padding, returning the new content and HV.
func (c *CPU) RegexShadowReplace(fn string, re *regex.Regex, content, repl []byte, hv *HV) ([]byte, *HV, int) {
	c.at(fn, sim.CatRegex)
	if c.RA == nil || hv == nil {
		out, n := re.ReplaceAll(content, repl)
		return out, nil, n
	}
	c.chargeHVConsult(fn, len(content))
	saved := re.Obs
	re.Obs = nil
	out, newHV, n, examined := c.RA.ShadowReplace(re, content, repl, hv)
	re.Obs = saved
	c.Meter.AddUops(fn, sim.CatRegex, c.Meter.Model.RegexScanCost(examined))
	// The splice itself moves bytes through the core.
	c.Meter.AddUops(fn, sim.CatRegex, float64(n)*4)
	return out, newHV, n
}

// RegexScanReuse performs an anchored traversal through the content reuse
// table (regexlookup/regexset). It returns the longest accepted prefix
// end, or -1.
func (c *CPU) RegexScanReuse(fn string, re *regex.Regex, pc uint64, content []byte) int {
	c.at(fn, sim.CatRegex)
	mdl := &c.Meter.Model
	if c.RA == nil {
		c.Meter.AddUops(fn, sim.CatRegex, mdl.RegexScanCost(len(content)))
		return anchoredScan(re, content)
	}
	end, res := c.RA.ScanWithReuse(re, pc, asid, content)
	c.Meter.AddAccel(fn, sim.CatRegex, sim.AccelRegex, mdl.ReuseLookupCycles)
	c.Meter.AddUops(fn, sim.CatRegex, mdl.RegexScanCost(len(content)-res.Skipped))
	return end
}

// chargeHVConsult charges the CLZ stepping over the hint vector words.
func (c *CPU) chargeHVConsult(fn string, contentLen int) {
	segs := (contentLen + c.RA.Config().SegSize - 1) / c.RA.Config().SegSize
	words := float64(segs+63) / 64
	c.Meter.AddAccel(fn, sim.CatRegex, sim.AccelRegex, words*c.Meter.Model.HVWordCycles)
}

// anchoredScan is the software reference for RegexScanReuse.
func anchoredScan(re *regex.Regex, content []byte) int {
	d := re.FSM()
	best := -1
	st := d.Start()
	if d.Accepting(st) {
		best = 0
	}
	for i, b := range content {
		st = d.Step(st, b)
		if st == regex.Dead {
			break
		}
		if d.Accepting(st) {
			best = i + 1
		}
	}
	return best
}

// asid is the simulated address-space identifier; the simulation runs one
// process.
const asid uint32 = 1

// --- Context switch protocol (§4.6) ---

// ContextSwitch models the OS preempting the simulated process: the hash
// table's hardware-coherent state needs no cleanup beyond its flush
// protocol, hmflush writes the heap manager's free lists back, and the
// string accelerator's configuration is saved with strwriteconfig and
// restored with strreadconfig.
func (c *CPU) ContextSwitch() {
	mdl := &c.Meter.Model
	if c.HT != nil {
		written := c.HT.FlushAll()
		c.Meter.AddUops("context_switch", sim.CatOther, float64(written)*mdl.HTWritebackUops)
	}
	if c.HM != nil {
		flushed := c.HM.Flush()
		c.Meter.AddUops("context_switch", sim.CatOther, float64(flushed)*mdl.FlushPerEntryUops)
	}
	if c.SA != nil {
		cfg := c.SA.SaveConfig()
		c.SA.LoadConfig(cfg)
		c.Meter.AddUops("context_switch", sim.CatOther, 16)
	}
}
