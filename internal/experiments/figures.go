package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// figures is every table cmd/figures prints, in presentation order:
// its id (what -only, drift lines and the paper table name), its title,
// the heading of its row-label column and the driver that fills it.
var figures = []struct {
	id, title, rowHead string
	fill               func(*builder)
}{
	{"fig1", "Figure 1: leaf-function profile (cycle share of the hottest function; functions covering 65% of cycles)", "workload", (*builder).fig1},
	{"fig1-cdf", "Figure 1: cumulative cycle % over the hottest N leaf functions", "workload", (*builder).fig1CDF},
	{"fig2a", "Figure 2a: WordPress execution time vs BTB entries / I-cache size (time% of the smallest point)", "BTB/I$", (*builder).fig2a},
	{"fig2b", "Figure 2b: cache MPKI", "workload", (*builder).fig2b},
	{"fig2c", "Figure 2c: WordPress execution time by core (time% of 2-wide in-order; step-gain% over the row above)", "core", (*builder).fig2c},
	{"mpki", "Section 2: branch MPKI (32KB TAGE)", "workload", (*builder).mpki},
	{"fig3", "Figure 3: WordPress leaf functions before/after the section 3 mitigations (% of cycles)", "function [category]", (*builder).fig3},
	{"fig4", "Figure 4: hottest WordPress leaf functions after mitigation, by category (% of cycles)", "function [category]", (*builder).fig4},
	{"fig5", "Figure 5: execution time breakdown after mitigation (% of cycles; four% = hash+heap+string+regex)", "workload", (*builder).fig5},
	{"fig7", "Figure 7: hardware hash table GET hit rate vs entries (all three apps)", "entries", (*builder).fig7},
	{"fig8a", "Figure 8a: cumulative % of allocations by slab size (bytes)", "workload", (*builder).fig8a},
	{"fig8bc", "Figure 8b/c: live bytes in the four smallest slab bands, second half of the run", "workload", (*builder).fig8bc},
	{"fig8bc-tail", "Figure 8b/c: live bytes per slab band, last 8 samples", "sample", (*builder).fig8bcTail},
	{"fig12", "Figure 12: % of regexp content skipped by sifting and reuse", "workload", (*builder).fig12},
	{"fig14", "Figure 14: execution time normalized to unmodified HHVM; gain and energy saving over the mitigated core (%)", "workload", (*builder).fig14},
	{"fig15", "Figure 15: per-accelerator benefit (% of mitigated time)", "workload", (*builder).fig15},
	{"keys", "Section 4.2: hash key statistics (% of hash requests)", "workload", (*builder).keys},
	{"uops", "Section 5.2: software-path micro-op costs (hash-walk: the typical walk, 2 probes over a 12B key)", "operation", (*builder).uops},
	{"indirect", "Extension: indirect target prediction on VM dispatch (cf. section 2)", "workload", (*builder).indirect},
	{"general", "Extension: other PHP frameworks (the conclusion's claim; % of unmodified time)", "workload", (*builder).general},
}

var phpApps = []string{"wordpress", "drupal", "mediawiki"}

// fig1Apps adds the hotspotted SPECWeb2005 workloads Fig. 1 contrasts
// the PHP applications with.
var fig1Apps = append(append([]string(nil), phpApps...), "specweb-banking", "specweb-ecommerce")

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (b *builder) fig1() {
	for _, app := range fig1Apps {
		rt, _ := b.run(app, config("baseline"))
		p := profile.FromMeter(rt.Meter())
		b.add(app, "hottest%", 100*p.HottestFrac())
		b.add(app, "funcs@65%", float64(p.FuncsForFrac(0.65)))
		b.add(app, "funcs", float64(p.NumFunctions()))
	}
}

func (b *builder) fig1CDF() {
	xs := []int{1, 6, 11, 16, 21, 26, 31, 41, 51, 61, 81, 101, 126, 151}
	for _, app := range fig1Apps {
		rt, _ := b.run(app, config("baseline"))
		for i, v := range profile.FromMeter(rt.Meter()).CDF(xs) {
			b.add(app, "top"+strconv.Itoa(xs[i]), 100*v)
		}
	}
}

func (b *builder) fig3() {
	before, _ := b.run("wordpress", config("baseline"))
	after, _ := b.run("wordpress", config("mitigated"))
	diffs := profile.Diff(profile.FromMeter(before.Meter()), profile.FromMeter(after.Meter()))
	for _, d := range diffs[:min(25, len(diffs))] {
		row := d.Name + " [" + d.Category.String() + "]"
		b.add(row, "before%", 100*d.BeforeFrac)
		b.add(row, "after%", 100*d.AfterFrac)
	}
}

func (b *builder) fig4() {
	rt, _ := b.run("wordpress", config("mitigated"))
	for _, e := range profile.FromMeter(rt.Meter()).TopN(25) {
		b.add(e.Name+" ["+e.Category.String()+"]", "share%", 100*e.Frac)
	}
}

func (b *builder) fig5() {
	for _, app := range phpApps {
		rt, _ := b.run(app, config("mitigated"))
		shares := profile.FromMeter(rt.Meter()).CategoryShares()
		for _, c := range []sim.Category{sim.CatHash, sim.CatHeap, sim.CatString, sim.CatRegex, sim.CatOther, sim.CatKernel} {
			b.add(app, c.String()+"%", 100*shares[c])
		}
		b.add(app, "four%", 100*(shares[sim.CatHash]+shares[sim.CatHeap]+shares[sim.CatString]+shares[sim.CatRegex]))
	}
}

// fig7: SETs never miss, so the curve is the GET hit rate.
func (b *builder) fig7() {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		cfg := config("accelerated")
		cfg.Features.HTConfig.Entries = n
		cfg.Features.HTConfig.ProbeWindow = min(cfg.Features.HTConfig.ProbeWindow, n)
		var gets, hits, sets int64
		for _, app := range phpApps {
			rt, _ := b.run(app, cfg)
			st := rt.CPU().HT.Stats()
			gets += st.Gets
			hits += st.GetHits
			sets += st.Sets
		}
		row := strconv.Itoa(n)
		b.add(row, "hit%", 100*ratio(hits, gets))
		b.add(row, "GETs", float64(gets))
		b.add(row, "SETs", float64(sets))
	}
}

func (b *builder) fig8a() {
	for _, app := range phpApps {
		rt, _ := b.run(app, config("mitigated"))
		for c, frac := range rt.CPU().Alloc.CumulativeSmallFraction() {
			b.add(app, "<="+strconv.Itoa(heap.ClassSize(c)), 100*frac)
		}
	}
}

// fig8bc: flat lines are strong memory reuse. small is the live bytes
// of the four smallest bands (at most 128 B) together.
func (b *builder) fig8bc() {
	for _, app := range []string{"wordpress", "mediawiki"} {
		rt, _ := b.run(app, config("mitigated"))
		tl := rt.CPU().Alloc.Timeline()
		b.add(app, "samples", float64(len(tl)))
		var lo, hi int64
		for i, p := range tl[len(tl)/2:] {
			small := p.Bands[0] + p.Bands[1] + p.Bands[2] + p.Bands[3]
			if i == 0 || small < lo {
				lo = small
			}
			hi = max(hi, small)
		}
		b.add(app, "small-min", float64(lo))
		b.add(app, "small-max", float64(hi))
		b.add(app, "max/min", ratio(hi, lo))
	}
}

func (b *builder) fig8bcTail() {
	bands := []string{"0-32", "32-64", "64-96", "96-128", ">128"}
	for _, app := range []string{"wordpress", "mediawiki"} {
		rt, _ := b.run(app, config("mitigated"))
		tl := rt.CPU().Alloc.Timeline()
		tl = tl[max(0, len(tl)-8):]
		for i, p := range tl {
			row := fmt.Sprintf("%s t-%d", app, len(tl)-1-i)
			b.add(row, "op", float64(p.Op))
			for k, name := range bands {
				b.add(row, name, float64(p.Bands[k]))
			}
		}
	}
}

func (b *builder) fig12() {
	for _, app := range phpApps {
		rt, _ := b.run(app, config("accelerated"))
		st := rt.CPU().RA.Stats()
		b.add(app, "sift%", 100*ratio(st.BytesSkippedSift, st.BytesPresented))
		b.add(app, "reuse%", 100*ratio(st.BytesSkippedReuse, st.BytesPresented))
		b.add(app, "total%", 100*ratio(st.BytesSkippedSift+st.BytesSkippedReuse, st.BytesPresented))
	}
}

// normalized adds app's mitigated and accelerated time against the
// unmodified core and the accelerators' gain over the mitigated one —
// "even more prominent as future server processors incorporate the
// prior optimizations". It returns the two runs the gain compares.
func (b *builder) normalized(app string) (mit, acc workload.Result) {
	_, base := b.run(app, config("baseline"))
	_, mit = b.run(app, config("mitigated"))
	_, acc = b.run(app, config("accelerated"))
	b.add(app, "mitigated%", 100*mit.Cycles/base.Cycles)
	b.add(app, "accelerated%", 100*acc.Cycles/base.Cycles)
	b.add(app, "rel.gain%", 100*(1-acc.Cycles/mit.Cycles))
	return mit, acc
}

// fig14: the energy saving is quoted on top of the prior proposals'.
func (b *builder) fig14() {
	for _, app := range phpApps {
		mit, acc := b.normalized(app)
		b.add(app, "energy-save%", 100*(1-acc.EnergyPJ/mit.EnergyPJ))
	}
	b.addAverage()
}

// fig15 runs each accelerator alone on the mitigated core.
func (b *builder) fig15() {
	all := isa.AllAccelerators()
	alone := map[sim.AccelKind]isa.Features{
		sim.AccelHashTable: {HashTable: true, HTConfig: all.HTConfig},
		sim.AccelHeapMgr:   {HeapManager: true, HMConfig: all.HMConfig},
		sim.AccelString:    {StringAccel: true, SAConfig: all.SAConfig},
		// Content sifting needs the string accelerator's HV rows, as in
		// the paper; the string accelerator's own gain is subtracted so
		// the regexp bar is sifting and reuse alone.
		sim.AccelRegex: {RegexAccel: true, StringAccel: true, SAConfig: all.SAConfig, RAConfig: all.RAConfig},
	}
	for _, app := range phpApps {
		_, mit := b.run(app, config("mitigated"))
		gain := map[sim.AccelKind]float64{}
		for _, kind := range sim.AccelKinds() {
			cfg := config("mitigated")
			cfg.Features = alone[kind]
			_, res := b.run(app, cfg)
			gain[kind] = 100 * (1 - res.Cycles/mit.Cycles)
		}
		gain[sim.AccelRegex] -= gain[sim.AccelString]
		for _, kind := range sim.AccelKinds() {
			b.add(app, kind.String(), gain[kind])
		}
		_, acc := b.run(app, config("accelerated"))
		b.add(app, "total", 100*(1-acc.Cycles/mit.Cycles))
	}
	b.addAverage()
}

// keys is the one table that reads the operation trace (Result.Keys),
// so its runs are the only ones that record one.
func (b *builder) keys() {
	cfg := config("accelerated")
	cfg.TraceCapacity = 0
	for _, app := range phpApps {
		_, res := b.run(app, cfg)
		b.add(app, "keys<=24B%", 100*res.Keys.ShortKeyFrac())
		b.add(app, "SET%", 100*res.Keys.SetRatio())
		b.add(app, "dynamic%", 100*res.Keys.DynamicFrac())
	}
}

func (b *builder) uops() {
	m := sim.DefaultCostModel()
	b.add("malloc", "uops", m.MallocUops)
	b.add("free", "uops", m.FreeUops)
	b.add("hash-walk", "uops", m.HashWalkCost(2, 12))
}

func (b *builder) general() {
	for _, app := range []string{"laravel", "symfony"} {
		b.normalized(app)
	}
}

// characterize runs p's synthesized instruction stream through the
// default server core (uarch.DefaultCharacterizeConfig), once per
// distinct stream: the MPKI table and Fig. 2b read the same three.
func (b *builder) characterize(p uarch.Profile, instructions int64, ittage bool) uarch.StreamStats {
	key := streamKey{p.Name, instructions, ittage}
	if st, ok := b.streams[key]; ok {
		return st
	}
	cfg := uarch.DefaultCharacterizeConfig()
	cfg.Instructions = instructions
	cfg.Seed = seed
	cfg.WithITTAGE = ittage
	st := uarch.Characterize(p, cfg).Stats
	b.streams[key] = st
	return st
}

func (b *builder) mpki() {
	for _, p := range []uarch.Profile{uarch.PHPProfile("wordpress"), uarch.PHPProfile("drupal"), uarch.PHPProfile("mediawiki"), uarch.SPECProfile()} {
		b.add(p.Name, "MPKI", b.characterize(p, uarchInstructions, false).BranchMPKI)
	}
}

func (b *builder) fig2a() {
	points := uarch.SweepBTB(uarch.PHPProfile("wordpress"),
		[]int{4096, 8192, 16384, 32768, 65536}, []int{32 << 10, 64 << 10, 128 << 10}, uarchInstructions)
	for _, pt := range points {
		row := fmt.Sprintf("%dK/%dK", pt.BTBEntries>>10, pt.L1ISize>>10)
		b.add(row, "time%", 100*pt.ExecCycles/points[0].ExecCycles)
		b.add(row, "BTB-hit%", 100*pt.BTBHitRate)
	}
}

func (b *builder) fig2b() {
	for _, app := range phpApps {
		st := b.characterize(uarch.PHPProfile(app), uarchInstructions, false)
		b.add(app, "L1I", st.L1IMPKI)
		b.add(app, "L1D", st.L1DMPKI)
		b.add(app, "L2", st.L2MPKI)
	}
}

func (b *builder) fig2c() {
	points := uarch.SweepCores(uarch.PHPProfile("wordpress"), uarchInstructions)
	for i, pt := range points {
		b.add(pt.Core.Name, "time%", 100*pt.ExecCycles/points[0].ExecCycles)
		above := points[max(0, i-1)].ExecCycles
		b.add(pt.Core.Name, "step-gain%", 100*(above-pt.ExecCycles)/above)
	}
}

// indirect compares the plain BTB with an added ITTAGE-style indirect
// target predictor on the megamorphic dispatch sites — the front-end
// remedy section 2's analysis points to. Dispatches are rare (~1.4/KI),
// so the stream is three times longer to train the predictor tables.
func (b *builder) indirect() {
	for _, app := range phpApps {
		base := b.characterize(uarch.PHPProfile(app), 3*uarchInstructions, false)
		ext := b.characterize(uarch.PHPProfile(app), 3*uarchInstructions, true)
		b.add(app, "ind/KI", base.IndirectPerKI)
		b.add(app, "BTB-miss%", 100*base.IndirectBTBMiss)
		b.add(app, "ITTAGE-miss%", 100*ext.ITTAGEMiss)
		b.add(app, "bubbles/KI", base.BTBMissPKI)
		b.add(app, "bubbles/KI+ITTAGE", ext.BTBMissPKI)
		b.add(app, "RAS-miss%", 100*base.RASMispredicts)
	}
}
