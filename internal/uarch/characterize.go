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
}

// DefaultCharacterizeConfig is the baseline server-core configuration:
// 32KB TAGE, 4K-entry 2-way BTB, 32K/32K/1M caches. Its stream length is
// the one the profiles' DataDepFrac was calibrated at: every model starts
// cold, so branch MPKI depends on the length, and at 4M instructions it
// reads 15.35 / 12.57 / 13.57 / 2.09 against the paper's 17.26 / 14.48 /
// 15.14 / 2.9 (EXPERIMENTS.md, DESIGN.md).
func DefaultCharacterizeConfig() CharacterizeConfig {
	return CharacterizeConfig{
		Instructions: 1_500_000,
		Seed:         1,
		BTBEntries:   4096,
		BTBWays:      2,
		TAGE:         DefaultTAGEConfig(),
		Hierarchy:    DefaultHierarchyConfig(),
	}
}

// Characterize runs the models over a synthesized stream.
func Characterize(p Profile, cfg CharacterizeConfig) Characterization {
	bp := NewTAGE(cfg.TAGE)
	btb := NewBTB(cfg.BTBEntries, cfg.BTBWays)
	hier := NewHierarchy(cfg.Hierarchy)
	synth := NewSynth(p, cfg.Seed)

	var btbMisses int64
	n := synth.Run(cfg.Instructions, Hooks{
		OnFetch: func(pc uint64) { hier.L1I.Access(pc) },
		OnCondBranch: func(pc uint64, taken bool) {
			bp.Predict(pc)
			bp.Update(pc, taken)
		},
		OnTakenBranch: func(pc, target uint64) {
			if !btb.Lookup(pc, target) {
				btbMisses++
			}
		},
		OnData: func(addr uint64, write bool) { hier.L1D.Access(addr) },
	})

	return Characterization{Stats: StreamStats{
		Instructions: n,
		BranchMPKI:   bp.MPKI(n),
		BTBMissPKI:   1000 * float64(btbMisses) / float64(n),
		L1IMPKI:      hier.L1I.MPKI(n),
		L1DMPKI:      hier.L1D.MPKI(n),
		L2MPKI:       hier.L2.MPKI(n),
		BTBHitRate:   btb.HitRate(),
	}}
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
func SweepBTB(p Profile, btbSizes []int, icacheSizes []int) []BTBSweepPoint {
	var out []BTBSweepPoint
	costs := DefaultPipelineCosts()
	core := CoreModels()[2] // 4-wide OoO
	for _, ic := range icacheSizes {
		for _, be := range btbSizes {
			cfg := DefaultCharacterizeConfig()
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
func SweepCores(p Profile) []CoreSweepPoint {
	ch := Characterize(p, DefaultCharacterizeConfig())
	costs := DefaultPipelineCosts()
	var out []CoreSweepPoint
	for _, core := range CoreModels() {
		out = append(out, CoreSweepPoint{Core: core, ExecCycles: ExecCycles(core, p.ILP, ch.Stats, costs)})
	}
	return out
}
