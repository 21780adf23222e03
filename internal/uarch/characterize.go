package uarch

// Characterization runs a synthesized workload stream through the full
// model set — TAGE, BTB, cache hierarchy — and collects the Section 2
// statistics.
type Characterization struct {
	Stats StreamStats
}

// CharacterizeConfig parameterizes one characterization run.
type CharacterizeConfig struct {
	Instructions int64
	Seed         int64
	BTBEntries   int
	BTBWays      int
	TAGE         TAGEConfig
	Hierarchy    HierarchyConfig
	RASEntries   int
	WithITTAGE   bool // add the indirect target predictor (§2 extension)
	ITTAGE       ITTAGEConfig
}

// DefaultCharacterizeConfig is the baseline server-core configuration:
// 32KB TAGE, 4K-entry 2-way BTB, 32K/32K/1M caches.
func DefaultCharacterizeConfig() CharacterizeConfig {
	return CharacterizeConfig{
		Instructions: 2_000_000,
		Seed:         1,
		BTBEntries:   4096,
		BTBWays:      2,
		TAGE:         DefaultTAGEConfig(),
		Hierarchy:    DefaultHierarchyConfig(),
		RASEntries:   16,
		ITTAGE:       DefaultITTAGEConfig(),
	}
}

// Characterize runs the models over a synthesized stream.
func Characterize(p Profile, cfg CharacterizeConfig) Characterization {
	if cfg.Instructions == 0 {
		cfg = DefaultCharacterizeConfig()
	}
	bp := NewTAGE(cfg.TAGE)
	btb := NewBTB(cfg.BTBEntries, cfg.BTBWays)
	hier := NewHierarchy(cfg.Hierarchy)
	ras := NewRAS(cfg.RASEntries)
	var itp *ITTAGE
	if cfg.WithITTAGE {
		itp = NewITTAGE(cfg.ITTAGE)
	}
	synth := NewSynth(p, cfg.Seed)

	var btbMisses, indirect, indirectBTBMiss int64
	n := synth.Run(cfg.Instructions, Hooks{
		OnFetch: func(pc uint64) { hier.L1I.Access(pc) },
		OnCondBranch: func(pc uint64, taken bool) {
			bp.Predict(pc)
			bp.Update(pc, taken)
		},
		OnTakenBranch: func(pc, target uint64) {
			if !btb.Lookup(pc, target) {
				btbMisses++
				if pc >= dispatchBase {
					indirectBTBMiss++
				}
			}
		},
		OnData:   func(addr uint64, write bool) { hier.L1D.Access(addr) },
		OnCall:   func(ret uint64) { ras.Push(ret) },
		OnReturn: func(actual uint64) { ras.Pop(actual) },
		OnIndirect: func(site, target uint64) {
			indirect++
			if itp != nil {
				itp.PredictAndUpdate(site, target)
			}
		},
	})

	st := StreamStats{
		Instructions:    n,
		BranchMPKI:      bp.MPKI(n),
		BTBMissPKI:      1000 * float64(btbMisses) / float64(n),
		L1IMPKI:         hier.L1I.MPKI(n),
		L1DMPKI:         hier.L1D.MPKI(n),
		L2MPKI:          hier.L2.MPKI(n),
		BTBHitRate:      btb.HitRate(),
		RASMispredicts:  ras.MispredictRate(),
		IndirectPerKI:   1000 * float64(indirect) / float64(n),
		IndirectBTBMiss: rate(indirectBTBMiss, indirect),
	}
	if itp != nil {
		st.ITTAGEMiss = itp.MispredictRate()
		// An indirect target predictor replaces the BTB for dispatch
		// sites: rescued misses come off the front-end bubble count.
		rescued := float64(indirectBTBMiss) - float64(itp.Mispredicts)
		if rescued > 0 {
			st.BTBMissPKI -= 1000 * rescued / float64(n)
		}
	}
	return Characterization{Stats: st}
}

// dispatchBase is the code address region of the megamorphic dispatch
// sites the synthesizer emits.
const dispatchBase = 0x7f0000

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BTBSweepPoint is one cell of the Fig. 2a surface.
type BTBSweepPoint struct {
	BTBEntries int
	L1ISize    int
	ExecCycles float64
	BTBHitRate float64
}

// SweepBTB reproduces Fig. 2a: execution time as the BTB grows from 4K to
// 64K entries for several instruction cache sizes, on the 4-wide OoO
// baseline core.
func SweepBTB(p Profile, btbSizes []int, icacheSizes []int, instructions int64) []BTBSweepPoint {
	var out []BTBSweepPoint
	costs := DefaultPipelineCosts()
	core := CoreModels()[2] // 4-wide OoO
	for _, ic := range icacheSizes {
		for _, be := range btbSizes {
			cfg := DefaultCharacterizeConfig()
			cfg.Instructions = instructions
			cfg.BTBEntries = be
			cfg.Hierarchy.L1ISize = ic
			ch := Characterize(p, cfg)
			out = append(out, BTBSweepPoint{
				BTBEntries: be,
				L1ISize:    ic,
				ExecCycles: ExecCycles(core, p.ILP, ch.Stats, costs),
				BTBHitRate: ch.Stats.BTBHitRate,
			})
		}
	}
	return out
}

// CoreSweepPoint is one bar of Fig. 2c.
type CoreSweepPoint struct {
	Core       CoreModel
	ExecCycles float64
}

// SweepCores reproduces Fig. 2c: execution time across the four core
// configurations.
func SweepCores(p Profile, instructions int64) []CoreSweepPoint {
	cfg := DefaultCharacterizeConfig()
	cfg.Instructions = instructions
	ch := Characterize(p, cfg)
	costs := DefaultPipelineCosts()
	var out []CoreSweepPoint
	for _, core := range CoreModels() {
		out = append(out, CoreSweepPoint{Core: core, ExecCycles: ExecCycles(core, p.ILP, ch.Stats, costs)})
	}
	return out
}
