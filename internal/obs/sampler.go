package obs

import (
	"math"
	"sync/atomic"
)

// Sampler decides which requests carry a full attribution span. It is
// deterministic (every nth request) rather than randomized, so a given
// request count always yields the same number of spans — the property
// the sampling budgets and the tests rely on. Safe for concurrent use.
type Sampler struct {
	every uint64 // sample every nth request; 0 disables sampling
	n     uint64 // atomic request counter
}

// NewSampler builds a sampler from a rate in [0, 1]: rate 1 samples
// every request, 0.01 every hundredth, and rates <= 0 disable sampling
// entirely. The interval is ceil(1/rate), so the realized rate never
// exceeds the requested one.
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate <= 0:
		s.every = 0
	case rate >= 1:
		s.every = 1
	default:
		// Clamp before converting: for tiny rates 1/rate can exceed the
		// range where float64→uint64 conversion is defined.
		f := math.Ceil(1 / rate)
		if f >= math.MaxUint64/2 {
			f = math.MaxUint64 / 2
		}
		s.every = uint64(f)
	}
	return s
}

// Sample reports whether the current request should carry a span,
// advancing the request counter.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	return atomic.AddUint64(&s.n, 1)%s.every == 0
}
