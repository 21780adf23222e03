package uarch

import (
	"math"
	"math/rand"
)

// Profile parameterizes the trace synthesizer with the statistical
// character of a workload class. The PHP numbers follow the paper's §2
// measurements: about 22% of dynamic instructions are branches (versus
// 12% for SPEC CPU2006), a large fraction of them data-dependent with
// outcomes driven by unpredictable request data, spread over hundreds of
// compact leaf functions with a flat invocation profile.
type Profile struct {
	Name string

	Funcs    int // distinct leaf functions
	BodyMin  int // instructions per function body
	BodyMax  int
	CallZipf float64 // function popularity skew (small = flat profile)

	BranchFrac    float64 // fraction of instructions that are branches
	DataDepFrac   float64 // fraction of branches that are data-dependent
	DataDepTakenP float64 // taken probability of data-dependent branches
	BiasP         float64 // taken probability of biased branches

	IndirectFrac float64 // fraction of calls through megamorphic dispatch
	DispatchFan  int     // distinct targets per indirect dispatch site
	CallFan      int     // static call sites per function (direct-call out-degree)

	DataWorkingSet int     // bytes of data touched
	DataLocality   float64 // probability a data access stays near the last

	ILP float64 // exploitable instruction-level parallelism
}

// PHPProfile returns the synthesizer profile for one of the studied
// applications. The three differ slightly in measured branch MPKI
// (17.26 / 14.48 / 15.14 in §2), which maps to data-dependence fractions.
func PHPProfile(app string) Profile {
	p := Profile{
		Name:           app,
		Funcs:          500,
		BodyMin:        20,
		BodyMax:        90,
		CallZipf:       0.95,
		BranchFrac:     0.22,
		DataDepFrac:    0.10,
		DataDepTakenP:  0.5,
		BiasP:          0.97,
		IndirectFrac:   0.15,
		DispatchFan:    24,
		CallFan:        6,
		DataWorkingSet: 4 << 20,
		DataLocality:   0.98,
		ILP:            3.1,
	}
	// Calibrated so TAGE lands near the paper's measured MPKI of
	// 17.26 / 14.48 / 15.14 for the three applications.
	switch app {
	case "wordpress":
		p.DataDepFrac = 0.113
	case "drupal":
		p.DataDepFrac = 0.086
	case "mediawiki":
		p.DataDepFrac = 0.092
	}
	return p
}

// SPECProfile returns a SPEC-CPU2006-like profile: fewer branches, far
// more predictable, a hot-spotted function profile.
func SPECProfile() Profile {
	return Profile{
		Name:           "spec",
		Funcs:          60,
		BodyMin:        80,
		BodyMax:        400,
		CallZipf:       1.3,
		BranchFrac:     0.12,
		DataDepFrac:    0.02,
		DataDepTakenP:  0.5,
		BiasP:          0.985,
		IndirectFrac:   0.02,
		DispatchFan:    3,
		CallFan:        3,
		DataWorkingSet: 2 << 20,
		DataLocality:   0.98,
		ILP:            3.6,
	}
}

// instrKind classifies one static instruction slot.
type instrKind uint8

const (
	kindALU instrKind = iota
	kindBranchBiased
	kindBranchDataDep
	kindMem
)

// instr is one static instruction of the synthetic program. The program
// structure is fixed at construction — each PC has one kind and each
// branch site one bias — so the predictor sees realistic per-site
// behaviour instead of noise.
type instr struct {
	kind   instrKind
	takenP float64 // biased branches: per-site taken probability
	wrP    float64 // memory: write probability
}

// Synth walks a synthetic program built from the profile and feeds the
// microarchitectural models. It is deterministic for a given seed.
type Synth struct {
	p   Profile
	rng *rand.Rand

	funcPC   []uint64  // code base address per function
	bodies   [][]instr // static instruction slots per function
	callee   [][]int   // static direct-call targets per function (one per call site)
	zipfCum  []float64
	lastData uint64

	// Megamorphic dispatch sites: each cycles through a short target
	// sequence most of the time (repeated bytecode runs — predictable
	// from path history) with occasional data-dependent jumps.
	dispatchSeq  [][]int
	dispatchPos  []int
	lastDispatch int // current bursty dispatch site, -1 when none
}

// NewSynth builds a synthesizer.
func NewSynth(p Profile, seed int64) *Synth {
	s := &Synth{p: p, rng: rand.New(rand.NewSource(seed)), lastDispatch: -1}
	s.funcPC = make([]uint64, p.Funcs)
	s.bodies = make([][]instr, p.Funcs)
	pc := uint64(0x400000)
	for i := 0; i < p.Funcs; i++ {
		s.funcPC[i] = pc
		bodyLen := p.BodyMin + s.rng.Intn(p.BodyMax-p.BodyMin+1)
		body := make([]instr, bodyLen)
		for j := range body {
			r := s.rng.Float64()
			switch {
			case r < p.BranchFrac*p.DataDepFrac:
				body[j] = instr{kind: kindBranchDataDep, takenP: p.DataDepTakenP}
			case r < p.BranchFrac:
				// Per-site bias: most sites are near-deterministic (loop
				// exits, error checks), the rest follow BiasP.
				tp := p.BiasP
				if s.rng.Intn(5) != 0 {
					tp = 0.998
				}
				if s.rng.Intn(8) == 0 {
					tp = 1 - tp // some mostly-not-taken sites
				}
				body[j] = instr{kind: kindBranchBiased, takenP: tp}
			case r < p.BranchFrac+0.30:
				body[j] = instr{kind: kindMem, wrP: 0.35}
			default:
				body[j] = instr{kind: kindALU}
			}
		}
		s.bodies[i] = body
		pc += uint64(bodyLen*4) + 64 // padding between functions
	}
	// Static direct-call targets: each function has CallFan call sites and
	// each site's target never changes between executions (varying-callee
	// transfers are returns, which the return address stack predicts, not
	// the BTB). Execution picks among a function's sites, a random walk
	// over the static call graph.
	fan := p.CallFan
	if fan <= 0 {
		fan = 4
	}
	s.callee = make([][]int, p.Funcs)
	for i := range s.callee {
		s.callee[i] = make([]int, fan)
		for j := range s.callee[i] {
			s.callee[i][j] = s.rng.Intn(p.Funcs)
		}
	}
	// Dispatch site target sequences: a handful of central dispatch
	// sites, as in an interpreter/VM dispatch loop.
	s.dispatchSeq = make([][]int, 8)
	s.dispatchPos = make([]int, 8)
	for i := range s.dispatchSeq {
		fanOut := p.DispatchFan
		if fanOut <= 0 {
			fanOut = 4
		}
		if fanOut > 6 {
			fanOut = 6
		}
		seq := make([]int, fanOut)
		for j := range seq {
			seq[j] = s.rng.Intn(p.Funcs)
		}
		s.dispatchSeq[i] = seq
	}
	// Zipf CDF over function popularity.
	s.zipfCum = make([]float64, p.Funcs)
	sum := 0.0
	for i := 0; i < p.Funcs; i++ {
		sum += 1 / math.Pow(float64(i+1), p.CallZipf)
		s.zipfCum[i] = sum
	}
	for i := range s.zipfCum {
		s.zipfCum[i] /= sum
	}
	return s
}

func (s *Synth) pickFunc() int {
	x := s.rng.Float64()
	lo, hi := 0, len(s.zipfCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.zipfCum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Hooks receives the synthesized event stream.
type Hooks struct {
	// OnFetch fires for every instruction fetch address.
	OnFetch func(pc uint64)
	// OnCondBranch fires for conditional branches with their outcome.
	OnCondBranch func(pc uint64, taken bool)
	// OnTakenBranch fires for every taken control transfer with its
	// target (what the BTB must predict).
	OnTakenBranch func(pc, target uint64)
	// OnData fires for data accesses.
	OnData func(addr uint64, write bool)
	// OnCall fires when a call pushes a return address (RAS push).
	OnCall func(returnAddr uint64)
	// OnReturn fires when a return consumes a return address (RAS pop);
	// actual is the true return target.
	OnReturn func(actual uint64)
	// OnIndirect fires for megamorphic dispatch transfers with their
	// resolved target — the stream an indirect target predictor sees.
	OnIndirect func(site, target uint64)
}

// Run synthesizes approximately n instructions through the hooks,
// returning the exact count executed.
func (s *Synth) Run(n int64, h Hooks) int64 {
	var executed int64
	// Call-stack walk: calls push return addresses, returns pop them, so
	// the RAS model sees a realistic push/pop stream. Depth is bounded;
	// bursts beyond the RAS capacity exercise its overflow wraparound.
	type frame struct {
		fi      int
		retAddr uint64
	}
	var stack []frame
	fi := s.pickFunc()
	for executed < n {
		base := s.funcPC[fi]
		body := s.bodies[fi]
		for i := 0; i < len(body) && executed < n; i++ {
			pc := base + uint64(i*4)
			if h.OnFetch != nil {
				h.OnFetch(pc)
			}
			executed++
			ins := &body[i]
			switch ins.kind {
			case kindBranchBiased, kindBranchDataDep:
				taken := s.rng.Float64() < ins.takenP
				if h.OnCondBranch != nil {
					h.OnCondBranch(pc, taken)
				}
				if taken && h.OnTakenBranch != nil {
					// Short forward branch within the body.
					h.OnTakenBranch(pc, pc+uint64(8+(i%10)*4))
				}
			case kindMem:
				if h.OnData != nil {
					h.OnData(s.nextDataAddr(), s.rng.Float64() < ins.wrP)
				}
			}
		}
		// Control transfer: return to the caller, or call the next
		// function (directly or through megamorphic dispatch).
		callPC := base + uint64(len(body)*4)
		if h.OnFetch != nil {
			h.OnFetch(callPC)
		}
		executed++
		doReturn := len(stack) > 0 && (s.rng.Float64() < 0.45 || len(stack) >= 48)
		if doReturn {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if h.OnReturn != nil {
				h.OnReturn(top.retAddr)
			}
			fi = top.fi
			continue
		}
		if h.OnCall != nil {
			h.OnCall(callPC + 4)
		}
		stack = append(stack, frame{fi: fi, retAddr: callPC + 4})
		if s.rng.Float64() < s.p.IndirectFrac {
			// Dispatch site shared by many targets — VM handler dispatch.
			// Most transfers follow the site's recurring sequence (repeated
			// bytecode runs, path-predictable); the rest are data-dependent.
			// Interpreter-style burstiness: dispatch loops re-execute the
			// same site many times in a row, so the global path history an
			// indirect predictor folds is dominated by that site's targets.
			sid := fi % len(s.dispatchSeq)
			if s.lastDispatch >= 0 && s.rng.Float64() < 0.90 {
				sid = s.lastDispatch
			}
			s.lastDispatch = sid
			var next int
			if s.rng.Float64() < 0.85 {
				seq := s.dispatchSeq[sid]
				s.dispatchPos[sid] = (s.dispatchPos[sid] + 1) % len(seq)
				next = seq[s.dispatchPos[sid]]
			} else {
				next = s.pickFunc()
			}
			site := uint64(0x7f0000) + uint64(sid)*8
			if h.OnTakenBranch != nil {
				h.OnTakenBranch(site, s.funcPC[next])
			}
			if h.OnIndirect != nil {
				h.OnIndirect(site, s.funcPC[next])
			}
			fi = next
		} else {
			s.lastDispatch = -1
			// Direct call through one of the function's static call sites;
			// each site's target is fixed, so the BTB hits after warmup.
			j := s.rng.Intn(len(s.callee[fi]))
			sitePC := callPC + uint64(j*4)
			target := s.callee[fi][j]
			if h.OnTakenBranch != nil {
				h.OnTakenBranch(sitePC, s.funcPC[target])
			}
			fi = target
		}
	}
	return executed
}

// nextDataAddr models region-based data locality: accesses cluster in a
// small window (an object or hash map) that occasionally jumps to a new
// random spot in the working set.
func (s *Synth) nextDataAddr() uint64 {
	if s.lastData == 0 || s.rng.Float64() > s.p.DataLocality {
		s.lastData = uint64(s.rng.Intn(s.p.DataWorkingSet)) &^ 63
	}
	return 0x10000000 + s.lastData + uint64(s.rng.Intn(128))
}
