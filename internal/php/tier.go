package php

import "fmt"

// TierMode names the engine an Interp runs. EnableTier picks it once
// and every later Run uses it: there is no switching mid-run.
type TierMode uint8

const (
	// TierInterp runs the tree-walking interpreter (interp.go), the
	// reference the differential tests hold the bytecode engine to.
	TierInterp TierMode = iota
	// TierBytecode runs the compiled program, php_main and every user
	// function, from the first request.
	TierBytecode
)

func (m TierMode) String() string {
	if m == TierBytecode {
		return "bytecode"
	}
	return "interp"
}

// ParseTierMode parses the -tier flag values; "auto" is accepted as a
// spelling of bytecode.
func ParseTierMode(s string) (TierMode, error) {
	switch s {
	case "interp":
		return TierInterp, nil
	case "bytecode", "auto":
		return TierBytecode, nil
	}
	return TierInterp, fmt.Errorf("php: unknown tier mode %q (want interp or bytecode)", s)
}

// TierPolicy has nothing left to tune: the engine is chosen once per
// Interp. It remains so that callers passing one keep compiling.
type TierPolicy struct{}

// DefaultTierPolicy returns the zero policy.
func DefaultTierPolicy() TierPolicy { return TierPolicy{} }

// EnableTier selects the engine for every later Run and turns the
// snapshot on. comp may be a pre-compiled program shared across workers
// (it is immutable); pass nil to compile this interpreter's program here.
// Inline-cache and type-feedback state is always private to this Interp.
func (in *Interp) EnableTier(comp *Compiled, mode TierMode) error {
	if mode == TierBytecode {
		if comp == nil {
			var err error
			if comp, err = Compile(in.prog); err != nil {
				return err
			}
		}
		in.comp, in.bc = comp, newBCMachine(comp)
	}
	in.tiered = true
	return nil
}

// TierSnapshot is a point-in-time view of one interpreter's (or, after
// Merge, a worker pool's) engine and inline-cache state. It is its own
// wire shape: phpserve's /stats carries it as its tier object and the
// phpserve_tier_* series are obs.Encoder.Struct of it, each labelled
// with the mode.
type TierSnapshot struct {
	Enabled          bool   `json:"enabled" help:"True once the script engine is configured."`
	Mode             string `json:"tier" prom:"tier,label" help:"The engine: bytecode or interp."`
	Requests         int64  `json:"requests" prom:"tier_requests_total,counter,base" help:"Requests run by the script engine across all workers."`
	ICSites          int    `json:"ic_sites" prom:"tier_ic_sites,gauge,base" help:"Polymorphic inline-cache sites materialized in compiled code."`
	ICHits           int64  `json:"ic_hits" prom:"tier_ic_hits_total,counter,base" help:"Inline-cache hits at dynamic-key hash-access sites."`
	ICMisses         int64  `json:"ic_misses" prom:"tier_ic_misses_total,counter,base" help:"Inline-cache misses (lookup fell back to the full path)."`
	MegamorphicSites int64  `json:"megamorphic_sites" prom:"tier_megamorphic_sites,gauge,base" help:"Inline-cache sites gone megamorphic (cap exceeded, caching off)."`
	TypeStableHits   int64  `json:"type_stable_hits" prom:"tier_type_stable_hits_total,counter,base" help:"Type-check sites whose observed type matched the cached one."`
	TypeMisses       int64  `json:"type_misses" prom:"tier_type_misses_total,counter,base" help:"Type-check sites observing a new type (feedback updated)."`
}

// TierSnapshot captures the current engine state. Safe only from the
// goroutine running the interpreter (or while its worker is parked).
func (in *Interp) TierSnapshot() TierSnapshot {
	if !in.tiered {
		return TierSnapshot{}
	}
	s := TierSnapshot{Enabled: true, Mode: TierInterp.String(), Requests: in.requests}
	if m := in.bc; m != nil {
		s.Mode = TierBytecode.String()
		s.ICHits = m.icHits
		s.ICMisses = m.icMisses
		s.ICSites = len(m.ics)
		s.MegamorphicSites = m.megamorphic
		s.TypeStableHits = m.tfStable
		s.TypeMisses = m.tfMisses
	}
	return s
}

// Merge folds another snapshot (another worker, configured with the same
// mode) into s for a fleet-aggregate view.
func (s *TierSnapshot) Merge(o TierSnapshot) {
	if !o.Enabled {
		return
	}
	if !s.Enabled {
		*s = o
		return
	}
	s.Requests += o.Requests
	s.ICHits += o.ICHits
	s.ICMisses += o.ICMisses
	s.ICSites = max(s.ICSites, o.ICSites) // sites are per-program, not additive
	s.MegamorphicSites += o.MegamorphicSites
	s.TypeStableHits += o.TypeStableHits
	s.TypeMisses += o.TypeMisses
}
