// Package cache is a sharded, bounded, TTL'd in-memory response cache
// with singleflight request coalescing — the serving-scale analogue of
// the paper's content-reuse observation (§4.5, Figs. 12/13): the same
// work recurs, so recognize it and skip it. It sits between
// serve.Scheduler admission and Pool worker acquisition, so a cache hit
// is answered without consuming a worker slot, and concurrent misses
// for the same key render once while the rest wait for that render
// (dogpile protection).
//
// Hits are not free in the simulated cost model: every lookup charges a
// fixed cost (a hash probe plus response handoff) to the cache's own
// sim.Meter, which frontends merge into the fleet meter at scrape time.
// That keeps the /metrics per-category cycle totals exact — a hit
// contributes exactly the lookup cost, a miss contributes the lookup
// cost plus the full render charged on the worker that performed it.
//
// Ownership contract: a successful fill TRANSFERS its returned slice to
// the cache — the filler must hand over stable bytes it will never
// write again (render paths that recycle buffers copy before handing
// over; serve.DoCached does exactly that while it still holds the
// rendering worker). In exchange, every GetOrFill return — hit, miss,
// or coalesced — is the cache-owned slice itself, which callers must
// treat as READ-ONLY. This makes the steady-state hit path
// allocation-free: no per-hit defensive copy, because the stored bytes
// can never change underneath a reader.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// LookupFn is the leaf function name the fixed per-lookup cost is
// charged to; it shows up in flat profiles and flamegraphs like any
// other runtime function.
const LookupFn = "response_cache_lookup"

// DefaultLookupUops is the fixed simulated micro-op cost of one cache
// lookup: a key hash, one bucket probe, and the response handoff. It is
// deliberately of the same magnitude as a hardware-missed hash map GET —
// a cache hit is cheap, not free.
const DefaultLookupUops = 220

// DefaultShards is the shard count used when Config.Shards is not set.
const DefaultShards = 16

// Outcome classifies how one GetOrFill call was answered.
type Outcome int

// GetOrFill outcomes.
const (
	// Hit means the response was already cached and fresh.
	Hit Outcome = iota
	// Miss means this caller rendered the response and filled the cache.
	Miss
	// Coalesced means another in-flight render for the same key produced
	// the response while this caller waited (a dogpile-absorbed miss).
	Coalesced
	// Bypass means no cache was consulted (disabled or uncacheable); the
	// cache package never returns it, but frontends use it to label the
	// uncached path in shared reporting code.
	Bypass
)

// String returns the outcome name used in logs and headers.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	case Bypass:
		return "bypass"
	}
	return "unknown"
}

// Config sizes the cache.
type Config struct {
	// Capacity is the maximum number of cached responses across all
	// shards (<= 0 selects 1024). Eviction is LRU per shard.
	Capacity int
	// Shards is the number of independently locked shards, rounded up to
	// a power of two (<= 0 selects DefaultShards).
	Shards int
	// TTL is each entry's time to live (0 means entries never expire).
	TTL time.Duration
	// LookupUops overrides the fixed simulated micro-op cost charged per
	// lookup (<= 0 selects DefaultLookupUops).
	LookupUops float64
	// Model is the cost model the lookup charge is converted with; the
	// zero value selects sim.DefaultCostModel. It should match the
	// serving runtimes' model so merged totals stay in one currency.
	Model sim.CostModel
	// Clock overrides the time source for TTL decisions (tests). Nil
	// selects time.Now.
	Clock func() time.Time
}

// ValidateFlags checks the -cache flag family phpserve and loadgen share
// (-cache, -cacheshards, -cachettl, -pages, -zipf): a negative capacity
// is always an error, and the rest only matter — and are only checked —
// when the cache is on (capacity > 0).
func ValidateFlags(capacity, shards, pages int, ttl time.Duration, zipf float64) error {
	if capacity < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", capacity)
	}
	if capacity == 0 {
		return nil
	}
	if shards <= 0 {
		return fmt.Errorf("-cacheshards must be positive, got %d", shards)
	}
	if ttl < 0 {
		return fmt.Errorf("-cachettl must be >= 0, got %v", ttl)
	}
	if pages <= 0 {
		return fmt.Errorf("-pages must be positive with -cache, got %d", pages)
	}
	if zipf <= 0 {
		return fmt.Errorf("-zipf must be positive with -cache, got %g", zipf)
	}
	return nil
}

// Stats is a consistent snapshot of the cache's configuration, lifetime
// counters and current occupancy. The tags are the signals' one
// declaration: phpserve's /stats cache block is this struct's JSON and
// its phpserve_cache_* series are obs.Encoder.Struct of it.
type Stats struct {
	Capacity  int     `json:"capacity" help:"Total entry capacity across all shards (-cache rounded up to a multiple of the shard count)."`
	Shards    int     `json:"shards" help:"Shards actually in use (-cacheshards after rounding)."`
	Hits      int64   `json:"hits" prom:"cache_hits_total,counter" help:"Response cache lookups answered from a fresh cached entry."`
	Misses    int64   `json:"misses" prom:"cache_misses_total,counter" help:"Response cache lookups that rendered on a worker and filled."`
	Coalesced int64   `json:"coalesced" prom:"cache_coalesced_total,counter" help:"Response cache lookups that waited on another request's in-flight render."`
	Evictions int64   `json:"evictions" prom:"cache_evictions_total,counter" help:"Response cache entries evicted by the LRU capacity bound."`
	Expired   int64   `json:"expired" prom:"cache_expired_total,counter" help:"Response cache entries dropped because their TTL passed."`
	Entries   int     `json:"entries" prom:"cache_entries,gauge" help:"Responses currently cached (instantaneous)."`
	Bytes     int64   `json:"bytes" prom:"cache_bytes,gauge" help:"Body bytes currently cached (instantaneous)."`
	HitRatio  float64 `json:"hit_ratio" prom:"cache_hit_ratio,gauge" help:"Fraction of cache lookups answered from a cached entry (0 when no lookups)."`
}

// Lookups returns the total GetOrFill calls the stats cover: fill
// errors count as misses (the render was attempted), coalesced waiters
// are lookups but never hits.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// entry is one cached response, linked into its shard's LRU list.
type entry struct {
	key     string
	val     []byte
	expires time.Time // zero means never
}

// flight is one in-progress fill other callers for the same key wait
// on. val is the fill's returned slice — stable, cache-owned bytes
// under the ownership contract — published to the waiters when the
// flight completes; like every GetOrFill return it is read-only.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	flights map[string]*flight
	bytes   int64

	hits, misses, coalesced, evictions, expired int64
}

// Cache is the sharded response cache. Safe for concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64
	ttl    time.Duration
	now    func() time.Time

	// meter accumulates the fixed lookup charges; meterMu guards it
	// (sim.Meter itself is single-owner).
	meterMu      sync.Mutex
	meter        *sim.Meter
	lookupUops   float64
	lookupCycles float64
}

// New builds a cache from cfg (zero values select the documented
// defaults).
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if shards > cfg.Capacity {
		// More shards than capacity would round some shards to zero
		// entries; shrink to the largest power of two that still gives
		// every shard at least one slot.
		for shards > 1 && shards > cfg.Capacity {
			shards >>= 1
		}
	}
	if cfg.LookupUops <= 0 {
		cfg.LookupUops = DefaultLookupUops
	}
	if cfg.Model.IPC == 0 {
		cfg.Model = sim.DefaultCostModel()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Cache{
		shards:       make([]*shard, shards),
		mask:         uint64(shards - 1),
		ttl:          cfg.TTL,
		now:          cfg.Clock,
		meter:        sim.NewMeter(cfg.Model),
		lookupUops:   cfg.LookupUops,
		lookupCycles: cfg.Model.Cycles(cfg.LookupUops),
	}
	per := (cfg.Capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = &shard{
			cap:     per,
			lru:     list.New(),
			entries: make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// shard maps a key to its shard with FNV-1a.
func (c *Cache) shard(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h&c.mask]
}

// GetOrFill answers key from the cache, or renders it exactly once: the
// first caller for an absent key runs fill synchronously and stores a
// successful result; concurrent callers for the same key wait for that
// fill (Coalesced) instead of rendering again; later callers get the
// stored bytes (Hit). A waiting caller whose ctx expires returns the
// context's error without disturbing the fill. Fill errors are returned
// to the filling caller and every waiter, and nothing is cached.
//
// The returned slice is cache-owned on every path and must be treated
// as read-only (see the package ownership contract); a successful
// fill's return transfers to the cache, so the filler must hand over
// stable bytes it will never write again.
//
// Every call charges the fixed lookup cost to the cache's meter, so a
// hit costs exactly that — and allocates nothing — in the simulated
// totals and on the Go heap alike.
func (c *Cache) GetOrFill(ctx context.Context, key string, fill func() ([]byte, error)) ([]byte, Outcome, error) {
	c.chargeLookup()
	sh := c.shard(key)

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry)
		if e.expires.IsZero() || c.now().Before(e.expires) {
			sh.lru.MoveToFront(el)
			sh.hits++
			val := e.val
			sh.mu.Unlock()
			return val, Hit, nil
		}
		sh.removeLocked(el)
		sh.expired++
	}
	if f, ok := sh.flights[key]; ok {
		sh.coalesced++
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.misses++
	sh.mu.Unlock()

	body, ferr := fill()

	// Ownership of body transfers to the cache here: the entry and the
	// waiters publish the same stable slice.
	sh.mu.Lock()
	delete(sh.flights, key)
	if ferr == nil {
		sh.insertLocked(key, body, c.entryExpiry())
	}
	sh.mu.Unlock()
	f.val = body
	f.err = ferr
	close(f.done)
	return body, Miss, ferr
}

// entryExpiry returns the expiry instant for an entry stored now (zero
// when TTL is disabled).
func (c *Cache) entryExpiry() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	return c.now().Add(c.ttl)
}

// insertLocked stores (or refreshes) key with val, whose ownership the
// caller has transferred to the cache (no copy is made), evicting LRU
// entries past the shard capacity. Caller holds sh.mu.
func (sh *shard) insertLocked(key string, val []byte, expires time.Time) {
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry)
		sh.bytes += int64(len(val)) - int64(len(e.val))
		e.val, e.expires = val, expires
		sh.lru.MoveToFront(el)
		return
	}
	el := sh.lru.PushFront(&entry{key: key, val: val, expires: expires})
	sh.entries[key] = el
	sh.bytes += int64(len(val))
	for sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		sh.removeLocked(oldest)
		sh.evictions++
	}
}

// removeLocked unlinks an entry from the LRU and the index. Caller
// holds sh.mu.
func (sh *shard) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.entries, e.key)
	sh.bytes -= int64(len(e.val))
}

// chargeLookup adds the fixed per-lookup cost to the cache's meter.
func (c *Cache) chargeLookup() {
	c.meterMu.Lock()
	c.meter.AddUops(LookupFn, sim.CatHash, c.lookupUops)
	c.meterMu.Unlock()
}

// MergeMeter folds the cache's accumulated lookup charges into dst —
// how frontends make /metrics category totals cover hits exactly. dst
// must not be the cache's own meter.
func (c *Cache) MergeMeter(dst *sim.Meter) {
	c.meterMu.Lock()
	dst.Merge(c.meter)
	c.meterMu.Unlock()
}

// LookupCostVec returns the per-category cycle vector of one lookup
// (all of it in the hash category), the breakdown a cache-hit span
// carries.
func (c *Cache) LookupCostVec() sim.CategoryVec {
	var v sim.CategoryVec
	v[sim.CatHash] = c.lookupCycles
	return v
}

// Stats sums every shard's counters and occupancy into one snapshot.
func (c *Cache) Stats() Stats {
	s := Stats{Shards: len(c.shards)}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Capacity += sh.cap
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Coalesced += sh.coalesced
		s.Evictions += sh.evictions
		s.Expired += sh.expired
		s.Entries += sh.lru.Len()
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	if l := s.Lookups(); l > 0 {
		s.HitRatio = float64(s.Hits) / float64(l)
	}
	return s
}
