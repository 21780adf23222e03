package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// ZipfKeys draws page indices from a Zipf popularity distribution over a
// finite page set: page rank k (0-based) has weight 1/(k+1)^s. It is the
// request-identity generator for cache experiments — a seeded instance
// produces the same page sequence every run, so hit ratios reproduce
// exactly. Unlike math/rand's Zipf it supports the classic web-traffic
// exponent s = 1.0 (and any s > 0), by inverse-CDF sampling over the
// finite normalized weight table. Safe for concurrent use.
type ZipfKeys struct {
	mu  sync.Mutex
	rng *rand.Rand
	cdf []float64 // cumulative popularity, cdf[len-1] == 1
}

// NewZipfKeys builds a sampler over pages pages with exponent s. It
// errors on a non-positive page count or exponent rather than producing
// a degenerate distribution.
func NewZipfKeys(seed int64, s float64, pages int) (*ZipfKeys, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("workload: zipf needs at least 1 page, got %d", pages)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("workload: zipf exponent must be positive and finite, got %g", s)
	}
	cdf := make([]float64, pages)
	var sum float64
	for k := 0; k < pages; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[pages-1] = 1 // guard against rounding leaving the tail unreachable
	return &ZipfKeys{rng: rand.New(rand.NewSource(seed)), cdf: cdf}, nil
}

// Next draws the next page index in [0, pages): rank 0 is the most
// popular page.
func (z *ZipfKeys) Next() int {
	z.mu.Lock()
	u := z.rng.Float64()
	z.mu.Unlock()
	return z.pick(u)
}

// pick maps one uniform draw u to a page rank: the smallest rank whose
// cumulative popularity is >= u. Split from Next so CDF boundary values
// (a draw landing exactly on a step, or arbitrarily close to 1) are
// testable without steering the RNG. Any u in [0, 1] maps into range —
// the pinned tail (cdf[pages-1] == 1) guarantees it.
func (z *ZipfKeys) pick(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}
