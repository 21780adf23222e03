// Package benchrec keeps the repo's simulated-clock trajectory as a
// reviewed artifact. It runs a pinned scenario matrix — the direct pool
// loop, the accelerator on/off sweep EXPERIMENTS.md documents, the
// scheduler path, the cached Zipf path, the cluster sweep (real servers
// behind the real router, on loopback in one process) and the scripted
// engine pair — and serializes one schema-versioned Record per run into
// BENCH_<n>.json at the repo root. Committed records form
// the trajectory; scripts/bench_compare.go (`make bench-check`, a step
// of `make ci`) reruns the matrix and fails on any difference from the
// latest committed record.
//
// A record holds no measured time. Every field but one is a pure
// function of code and seed: the matrix uses a single closed-loop client
// over the pool's FIFO worker rotation, so simulated cycles and energy,
// cache outcomes, shed counts and inline-cache hits reproduce exactly,
// which TestMatrixDeterministic pins and SimDrift compares with no tolerance.
// The exception is allocs_per_op, which does not depend on host speed
// but moves by a few hundredths with the runtime's background
// allocations (a few tenths over loopback sockets); SimDrift gives it a
// small absolute slack. Host time —
// throughput, latency, CPU per request — is benchmark/'s clock
// (BENCHMARK.json), measured over real sockets.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// SchemaVersion is the record schema this package writes; Record.Schema
// says what each version changed.
const SchemaVersion = 3

// Record is one benchmark run: the environment it ran in, the knobs
// that pin the matrix, and one Scenario per matrix entry. Each field's
// comment is its row of docs/OPERATIONS.md's "Record schema" table.
type Record struct {
	// Schema is the record format version (SchemaVersion at write time).
	// Version 2 is version 1 minus every measured-time field (throughput,
	// wall, latency percentiles, calibration, timestamp), the scale and
	// the cluster stall; version 3 adds sim_fn_cycles and drops
	// profile_hottest_frac and profile_funcs_for_65, which the leaf rows
	// derive. Load reads all three, and a comparison across schemas sees
	// the fields both carry; anything else is rejected as not a record.
	Schema int `json:"schema"`
	// Seq is the record's position in the committed trajectory: the
	// sequence number in its file name.
	Seq int `json:"seq"`
	// GoVersion, GOOS and GOARCH are the toolchain and platform the record
	// was produced on. Only allocs_per_op can depend on them; every other
	// field is comparable everywhere.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Seed is the base RNG seed every scenario derives its streams from
	// (1, the seed the experiment figures use).
	Seed int64 `json:"seed"`
	// Scenarios holds one scenario object per matrix scenario, in matrix
	// order; the fields below are a scenario's.
	Scenarios []Scenario `json:"scenarios"`
}

// Scenario is one pinned workload configuration and what it measured.
// The configuration fields come first: the matrix pins them, and a
// difference in any of them is reported as drift like any other field.
type Scenario struct {
	// Name identifies the scenario within the matrix: "direct",
	// "accel_off", "scheduler", "cache_zipf", the cluster sweep
	// "cluster_zipf_1", "cluster_zipf_2" and "cluster_zipf_4" (backend
	// counts), or the scripted engine pair "scripted_zipf_interp" and
	// "scripted_zipf" (tree-walker, bytecode).
	Name string `json:"name"`
	// App is the workload application served: wordpress, or
	// phpscript-blog on the scripted pair.
	App string `json:"app"`
	// Workers is the pool size (2; 1 per backend on the cluster sweep).
	Workers int `json:"workers"`
	// Warmup and Requests are the discarded and measured request counts.
	Warmup   int `json:"warmup"`
	Requests int `json:"requests"`
	// Clients is the closed-loop client count on scheduler-driven
	// scenarios (1 per scheduler, for determinism; 0 on the direct pair).
	// With Backends it selects the allocs_per_op slack.
	Clients int `json:"clients"`
	// QueueDepth and TimeoutMS echo the scheduler's admission queue
	// capacity and request deadline in milliseconds (0 when the scenario
	// bypasses the scheduler).
	QueueDepth int     `json:"queue_depth"`
	TimeoutMS  float64 `json:"timeout_ms"`
	// Accelerated reports whether the paper's accelerators (and
	// mitigations) were enabled for this scenario's VM config.
	Accelerated bool `json:"accelerated"`
	// CacheCapacity, ZipfPages and ZipfS pin the response cache's entry
	// count and the page-popularity universe size and Zipf exponent
	// (0 when uncached).
	CacheCapacity int     `json:"cache_capacity"`
	ZipfPages     int     `json:"zipf_pages"`
	ZipfS         float64 `json:"zipf_s"`
	// Backends is the cluster sweep's backend count (0 elsewhere);
	// CacheCapacity is then the TOTAL budget, split across backends in
	// proportion to their owned share of the page universe.
	Backends int `json:"backends"`

	// AllocsPerOp is heap allocations per served request across the
	// measured window: a GC-fenced runtime.MemStats Mallocs delta, on the
	// cluster sweep the whole process's (servers, router and client).
	// Independent of host speed and reproducible to within a few
	// hundredths per op (runtime background allocations; a few tenths
	// over loopback), it is the one field compared with a slack instead
	// of exactly.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Served counts requests that completed with a response; the four
	// shed counts partition the rejected remainder by reason. The matrix
	// is sized so all four are deterministically zero: a nonzero shed
	// count in a record is itself a regression signal.
	Served       int `json:"served"`
	ShedOverload int `json:"shed_overload"`
	ShedDeadline int `json:"shed_deadline"`
	ShedCanceled int `json:"shed_canceled"`
	ShedDraining int `json:"shed_draining"`
	// CacheHits, CacheMisses and CacheCoalesced partition served
	// requests by response-cache outcome (cache scenarios only), and
	// CacheHitRatio is hits over all three. The cache starts cold, so
	// the measured-window ratio (about 0.5) sits below the steady-state
	// top-128 Zipf share (about 0.8); what the gate holds is that it
	// reproduces exactly per seed.
	CacheHits      int     `json:"cache_hits"`
	CacheMisses    int     `json:"cache_misses"`
	CacheCoalesced int     `json:"cache_coalesced"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	// SimCyclesPerReq is total simulated cycles (all workers merged, plus
	// cache-lookup cycles in the cache scenarios) over served requests:
	// the trajectory's headline number, platform-independent and exactly
	// reproducible. SimEnergyPJPerReq is simulated picojoules per
	// request, merged the same way.
	SimCyclesPerReq   float64 `json:"sim_cycles_per_req"`
	SimEnergyPJPerReq float64 `json:"sim_energy_pj_per_req"`
	// SimCategoryCycles is the measured window's simulated cycles by
	// activity category (hash, heap, string, regex, typecheck, refcount,
	// kernel, other), cache lookup charges included: the per-record view
	// of the cycle-breakdown figure. Drift is reported per category.
	SimCategoryCycles map[string]float64 `json:"sim_category_cycles"`
	// SimFnCycles is every leaf function's simulated cycles over the
	// measured window, exact, keyed "name [category]" (profile.RowKey,
	// the spelling of Figs. 3 and 4): the rows SimCategoryCycles sums
	// and the paper's Fig. 1 profile is built from. Drift is reported
	// per function, after its category's line.
	SimFnCycles map[string]float64 `json:"sim_fn_cycles,omitempty"`

	// Tier is the script execution engine on the scripted pair (interp
	// or bytecode; absent elsewhere).
	Tier string `json:"tier,omitempty"`
	// TierICHits is scripted_zipf's inline-cache hits at dynamic-key
	// hash-access sites (absent on the interp engine, which has no inline
	// caches): the fleet total over the whole run, warmup included, since
	// engine state survives the warmup meter reset like a long-lived FPM
	// process. Deterministic: one closed-loop client, FIFO worker
	// rotation.
	TierICHits int64 `json:"tier_ic_hits,omitempty"`
}

// MarshalIndent renders the record as stable, human-reviewable JSON
// (map keys sort, so the output is deterministic).
func (r Record) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Filename returns the trajectory filename for sequence number seq.
func Filename(seq int) string { return "BENCH_" + strconv.Itoa(seq) + ".json" }

// benchFileRE matches trajectory filenames and captures the sequence.
var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestSeq scans dir for BENCH_<n>.json files and returns the highest
// sequence number present (0 when there are none).
func LatestSeq(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	latest := 0
	for _, ent := range ents {
		m := benchFileRE.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n > latest {
			latest = n
		}
	}
	return latest, nil
}

// Load reads and validates one record file. It accepts every schema up
// to SchemaVersion: fields a newer schema dropped are ignored.
func Load(path string) (Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return Record{}, fmt.Errorf("benchrec: parse %s: %w", path, err)
	}
	if r.Schema < 1 || r.Schema > SchemaVersion || len(r.Scenarios) == 0 {
		return Record{}, fmt.Errorf("benchrec: %s is not a benchmark record (schema %d, %d scenarios)",
			path, r.Schema, len(r.Scenarios))
	}
	return r, nil
}

// Write stores rec as dir/BENCH_<rec.Seq>.json. It refuses to
// overwrite an existing file — the trajectory is append-only.
func Write(dir string, rec Record) (string, error) {
	path := filepath.Join(dir, Filename(rec.Seq))
	if _, err := os.Stat(path); err == nil {
		return "", fmt.Errorf("benchrec: %s already exists; the trajectory is append-only", path)
	}
	b, err := rec.MarshalIndent()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ScenarioNames lists the matrix scenario names in matrix order.
func ScenarioNames() []string {
	return []string{"direct", "accel_off", "scheduler", "cache_zipf",
		"cluster_zipf_1", "cluster_zipf_2", "cluster_zipf_4",
		"scripted_zipf_interp", "scripted_zipf"}
}
