package php

import (
	"fmt"
	"sort"
)

// TierMode selects how a script executes: always tree-walking, always
// bytecode, or profile-guided promotion of hot functions mid-run.
type TierMode uint8

const (
	// TierInterp runs everything through the tree-walker (the seed
	// behavior).
	TierInterp TierMode = iota
	// TierAuto starts in the tree-walker and promotes functions whose
	// invocation counts stay hot across profile windows (with hysteresis
	// against flapping), the paper's §3 profile-guided baseline.
	TierAuto
	// TierBytecode runs everything through the bytecode tier from the
	// first request.
	TierBytecode
)

func (m TierMode) String() string {
	switch m {
	case TierAuto:
		return "auto"
	case TierBytecode:
		return "bytecode"
	default:
		return "interp"
	}
}

// ParseTierMode parses the -tier flag values.
func ParseTierMode(s string) (TierMode, error) {
	switch s {
	case "interp":
		return TierInterp, nil
	case "auto":
		return TierAuto, nil
	case "bytecode":
		return TierBytecode, nil
	}
	return TierInterp, fmt.Errorf("php: unknown tier mode %q (want interp, auto, or bytecode)", s)
}

// TierPolicy is the promotion policy for TierAuto. Windows are counted
// in requests (Run calls), not wall time, so promotion decisions are
// deterministic for a given request sequence — the property the
// benchmark regression gate and the CI determinism guard rely on.
type TierPolicy struct {
	// WindowRequests is the profile-window length in requests.
	WindowRequests int
	// HotCalls is the per-window invocation count at or above which a
	// window counts as hot for a function.
	HotCalls int
	// HotWindows is how many consecutive hot windows promote a function.
	HotWindows int
	// ColdCalls is the per-window count at or below which a promoted
	// function's window counts as cold (the hysteresis band between
	// ColdCalls and HotCalls prevents flapping).
	ColdCalls int
	// ColdWindows is how many consecutive cold windows demote.
	ColdWindows int
}

// DefaultTierPolicy returns the serving default: promote after two
// consecutive 16-request windows with ≥32 calls, demote only after four
// consecutive near-idle windows.
func DefaultTierPolicy() TierPolicy {
	return TierPolicy{WindowRequests: 16, HotCalls: 32, HotWindows: 2, ColdCalls: 4, ColdWindows: 4}
}

// tierFn is the per-function tier state.
type tierFn struct {
	name        string
	calls       int64
	windowCalls int64
	hotStreak   int
	coldStreak  int
	promoted    bool
	promotions  int64
	demotions   int64
}

// tierState is one Interp's (one worker's) tier controller.
type tierState struct {
	mode     TierMode
	policy   TierPolicy
	requests int64
	inWindow int
	fns      map[string]*tierFn
	names    []string // sorted; deterministic window sweeps

	promotions, demotions int64
	bcCalls, interpCalls  int64
}

// EnableTier switches the interpreter to the given tier mode. comp may
// be a pre-compiled program shared across workers (it is immutable);
// pass nil to compile this interpreter's program here. Inline-cache and
// type-feedback state is always private to this Interp.
func (in *Interp) EnableTier(comp *Compiled, mode TierMode, policy TierPolicy) error {
	if comp == nil {
		var err error
		comp, err = Compile(in.prog)
		if err != nil {
			return err
		}
	}
	in.comp = comp
	in.bc = newBCMachine(comp)
	if policy.WindowRequests <= 0 {
		policy = DefaultTierPolicy()
	}
	t := &tierState{mode: mode, policy: policy, fns: map[string]*tierFn{}}
	t.names = append(t.names, "php_main")
	for name := range in.prog.funcs {
		t.names = append(t.names, name)
	}
	sort.Strings(t.names)
	for _, name := range t.names {
		t.fns[name] = &tierFn{name: name, promoted: mode == TierBytecode}
	}
	in.tier = t
	return nil
}

// beginRequest advances the request counter and, in auto mode, rolls
// the profile window when it fills.
func (t *tierState) beginRequest() {
	t.requests++
	t.inWindow++
	if t.mode == TierAuto && t.inWindow >= t.policy.WindowRequests {
		t.inWindow = 0
		t.rollWindow()
	}
}

// rollWindow applies the promotion policy to every function's window
// counters, in sorted-name order for determinism.
func (t *tierState) rollWindow() {
	for _, name := range t.names {
		fn := t.fns[name]
		wc := fn.windowCalls
		fn.windowCalls = 0
		if !fn.promoted {
			if wc >= int64(t.policy.HotCalls) {
				fn.hotStreak++
				if fn.hotStreak >= t.policy.HotWindows {
					fn.promoted = true
					fn.promotions++
					t.promotions++
					fn.hotStreak, fn.coldStreak = 0, 0
				}
			} else {
				fn.hotStreak = 0
			}
			continue
		}
		if wc <= int64(t.policy.ColdCalls) {
			fn.coldStreak++
			if fn.coldStreak >= t.policy.ColdWindows {
				fn.promoted = false
				fn.demotions++
				t.demotions++
				fn.hotStreak, fn.coldStreak = 0, 0
			}
		} else {
			fn.coldStreak = 0
		}
	}
}

// count records one invocation of name on the given tier.
func (t *tierState) count(name string, bc bool) {
	if fn := t.fns[name]; fn != nil {
		fn.calls++
		fn.windowCalls++
	}
	if bc {
		t.bcCalls++
	} else {
		t.interpCalls++
	}
}

// useBytecode reports whether the named function currently executes on
// the bytecode tier.
func (in *Interp) useBytecode(name string) bool {
	t := in.tier
	if t == nil || in.comp == nil {
		return false
	}
	switch t.mode {
	case TierBytecode:
		return true
	case TierInterp:
		return false
	}
	fn := t.fns[name]
	return fn != nil && fn.promoted
}

// callFn dispatches a user-function call to whichever tier the function
// currently runs on. Both tiers route here, so interp code calls
// promoted functions on bytecode and vice versa.
func (in *Interp) callFn(fd *funcDecl, args []Value) (Value, error) {
	bc := in.useBytecode(fd.name)
	if t := in.tier; t != nil {
		t.count(fd.name, bc)
	}
	if bc {
		return in.bcCall(in.comp.fns[in.comp.fnIndex[fd.name]], args)
	}
	return in.callUser(fd, args)
}

// TierFnStat is one function's row in a tier snapshot.
type TierFnStat struct {
	Name       string `json:"name"`
	Tier       string `json:"tier"` // "bytecode", "interp", or "mixed" after merging
	Calls      int64  `json:"calls"`
	Promotions int64  `json:"promotions"`
	Demotions  int64  `json:"demotions"`
}

// TierSnapshot is a point-in-time view of one interpreter's (or, after
// Merge, a worker pool's) tier and inline-cache state. It is its own
// wire shape: /tierz?format=json is this struct's JSON and the
// phpserve_tier_* series are obs.Encoder.Struct of it, each labelled
// with the mode.
type TierSnapshot struct {
	Enabled           bool         `json:"enabled"`
	Mode              string       `json:"tier" prom:"tier,label"`
	Requests          int64        `json:"requests" prom:"tier_requests_total,counter,base" help:"Requests seen by the tier controller across all workers."`
	Promotions        int64        `json:"promotions" prom:"tier_promotions_total,counter,base" help:"Function promotions to the bytecode tier across all workers."`
	Demotions         int64        `json:"demotions" prom:"tier_demotions_total,counter,base" help:"Function demotions back to the tree-walking interpreter."`
	BytecodeCalls     int64        `json:"bytecode_calls" prom:"tier_bytecode_calls_total,counter,base" help:"Function calls executed in the bytecode tier."`
	InterpCalls       int64        `json:"interp_calls" prom:"tier_interp_calls_total,counter,base" help:"Function calls executed by the tree-walking interpreter."`
	ICSites           int          `json:"ic_sites" prom:"tier_ic_sites,gauge,base" help:"Polymorphic inline-cache sites materialized in compiled code."`
	ICHits            int64        `json:"ic_hits" prom:"tier_ic_hits_total,counter,base" help:"Inline-cache hits at static hash-access sites."`
	ICMisses          int64        `json:"ic_misses" prom:"tier_ic_misses_total,counter,base" help:"Inline-cache misses (lookup fell back to the full path)."`
	MegamorphicSites  int64        `json:"megamorphic_sites" prom:"tier_megamorphic_sites,gauge,base" help:"Inline-cache sites gone megamorphic (cap exceeded, caching off)."`
	TypeStableHits    int64        `json:"type_stable_hits" prom:"tier_type_stable_hits_total,counter,base" help:"Type-check sites whose observed type matched the cached one."`
	TypeMisses        int64        `json:"type_misses" prom:"tier_type_misses_total,counter,base" help:"Type-check sites observing a new type (feedback updated)."`
	PromotedFunctions int          `json:"promoted_functions" prom:"tier_promoted_functions,gauge,base" help:"Functions currently resident in the bytecode tier (any worker)."`
	Fns               []TierFnStat `json:"functions"`
}

// TierSnapshot captures the current tier state. Safe only from the
// goroutine running the interpreter (or while its worker is parked).
func (in *Interp) TierSnapshot() TierSnapshot {
	t := in.tier
	if t == nil {
		return TierSnapshot{}
	}
	s := TierSnapshot{
		Enabled:       true,
		Mode:          t.mode.String(),
		Requests:      t.requests,
		Promotions:    t.promotions,
		Demotions:     t.demotions,
		BytecodeCalls: t.bcCalls,
		InterpCalls:   t.interpCalls,
	}
	if m := in.bc; m != nil {
		s.ICHits = m.icHits
		s.ICMisses = m.icMisses
		s.ICSites = len(m.ics)
		s.MegamorphicSites = m.megamorphic
		s.TypeStableHits = m.tfStable
		s.TypeMisses = m.tfMisses
	}
	for _, name := range t.names {
		fn := t.fns[name]
		tier := "interp"
		if in.useBytecode(name) {
			tier = "bytecode"
		}
		if tier == "bytecode" {
			s.PromotedFunctions++
		}
		s.Fns = append(s.Fns, TierFnStat{
			Name:       name,
			Tier:       tier,
			Calls:      fn.calls,
			Promotions: fn.promotions,
			Demotions:  fn.demotions,
		})
	}
	return s
}

// Merge folds another snapshot (another worker) into s for a
// fleet-aggregate view.
func (s *TierSnapshot) Merge(o TierSnapshot) {
	if !o.Enabled {
		return
	}
	if !s.Enabled {
		*s = o
		return
	}
	if s.Mode != o.Mode {
		s.Mode = "mixed"
	}
	s.Requests += o.Requests
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.BytecodeCalls += o.BytecodeCalls
	s.InterpCalls += o.InterpCalls
	s.ICHits += o.ICHits
	s.ICMisses += o.ICMisses
	if o.ICSites > s.ICSites {
		s.ICSites = o.ICSites // sites are per-program, not additive
	}
	s.MegamorphicSites += o.MegamorphicSites
	s.TypeStableHits += o.TypeStableHits
	s.TypeMisses += o.TypeMisses
	byName := map[string]int{}
	for i, fn := range s.Fns {
		byName[fn.Name] = i
	}
	for _, fn := range o.Fns {
		i, ok := byName[fn.Name]
		if !ok {
			s.Fns = append(s.Fns, fn)
			continue
		}
		dst := &s.Fns[i]
		dst.Calls += fn.Calls
		dst.Promotions += fn.Promotions
		dst.Demotions += fn.Demotions
		if dst.Tier != fn.Tier {
			dst.Tier = "mixed"
		}
	}
	sort.Slice(s.Fns, func(i, j int) bool { return s.Fns[i].Name < s.Fns[j].Name })
	s.PromotedFunctions = 0
	for _, fn := range s.Fns {
		if fn.Tier == "bytecode" {
			s.PromotedFunctions++
		}
	}
}
