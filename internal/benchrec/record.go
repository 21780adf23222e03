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

// SchemaVersion is the record schema this package writes. Schema 2
// dropped every measured-time field of schema 1 (throughput, wall,
// latency percentiles, calibration, timestamp) along with the scale and
// the cluster stall; schema 3 adds sim_fn_cycles and drops the two
// Fig. 1 profile fields the rows derive. Load reads every schema and
// SimDrift compares two records on the fields both carry.
const SchemaVersion = 3

// Record is one benchmark run: the environment it ran in, the knobs
// that pin the matrix, and one Scenario per matrix entry.
type Record struct {
	// Schema is the record format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Seq is the record's position in the committed trajectory — the n
	// in BENCH_<n>.json.
	Seq int `json:"seq"`
	// GoVersion, GOOS, GOARCH identify the toolchain and platform, so an
	// allocs/op move can be told apart from an environment change.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Seed is the base RNG seed every scenario derives its streams from.
	Seed int64 `json:"seed"`
	// Scenarios holds one entry per matrix scenario, in matrix order.
	Scenarios []Scenario `json:"scenarios"`
}

// Scenario is one pinned workload configuration and what it measured.
type Scenario struct {
	// Name identifies the scenario within the matrix: "direct",
	// "accel_off", "scheduler", "cache_zipf", the cluster sweep
	// "cluster_zipf_<n>" at 1, 2, and 4 backends, or the scripted
	// engine pair "scripted_zipf_interp"/"scripted_zipf" (tree-walker,
	// bytecode).
	Name string `json:"name"`
	// App is the workload application served (wordpress throughout).
	App string `json:"app"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Warmup and Requests are the discarded and measured request counts.
	Warmup   int `json:"warmup"`
	Requests int `json:"requests"`
	// Clients is the closed-loop client count on scheduler-driven
	// scenarios (0 for direct pool scenarios).
	Clients int `json:"clients"`
	// QueueDepth and TimeoutMS echo the scheduler config (0 when the
	// scenario bypasses the scheduler).
	QueueDepth int     `json:"queue_depth"`
	TimeoutMS  float64 `json:"timeout_ms"`
	// Accelerated reports whether the paper's accelerators (and
	// mitigations) were enabled for this scenario's VM config.
	Accelerated bool `json:"accelerated"`
	// CacheCapacity, ZipfPages, ZipfS pin the cached scenario's response
	// cache size and popularity distribution (0 when uncached).
	CacheCapacity int     `json:"cache_capacity"`
	ZipfPages     int     `json:"zipf_pages"`
	ZipfS         float64 `json:"zipf_s"`
	// Backends is the cluster scenario's backend count (0 for
	// single-process scenarios); CacheCapacity is then the TOTAL budget
	// split across backends by key-range ownership.
	Backends int `json:"backends"`

	// AllocsPerOp is heap allocations per served request across the
	// measured phase (runtime.MemStats Mallocs delta / served) — the one
	// field that is not exactly reproducible (see the package comment).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Served counts requests that completed; the four shed counts
	// partition the rejected remainder by reason.
	Served       int `json:"served"`
	ShedOverload int `json:"shed_overload"`
	ShedDeadline int `json:"shed_deadline"`
	ShedCanceled int `json:"shed_canceled"`
	ShedDraining int `json:"shed_draining"`
	// CacheHits, CacheMisses, CacheCoalesced partition served requests
	// by response-cache outcome; CacheHitRatio is hits over lookups.
	CacheHits      int     `json:"cache_hits"`
	CacheMisses    int     `json:"cache_misses"`
	CacheCoalesced int     `json:"cache_coalesced"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	// SimCyclesPerReq and SimEnergyPJPerReq are the simulated cost
	// model's per-request averages for the measured phase.
	SimCyclesPerReq   float64 `json:"sim_cycles_per_req"`
	SimEnergyPJPerReq float64 `json:"sim_energy_pj_per_req"`
	// SimCategoryCycles is the simulated cycle total per activity
	// category (hash, heap, string, regex, ...) over the measured phase,
	// including the response cache's lookup charges when present.
	SimCategoryCycles map[string]float64 `json:"sim_category_cycles"`
	// SimFnCycles is every leaf function's cycle total over the measured
	// phase, keyed "name [category]" (profile.RowKey): the rows the
	// category totals are sums of, so drift names the function that moved.
	SimFnCycles map[string]float64 `json:"sim_fn_cycles,omitempty"`

	// Tier names the script execution engine on scripted scenarios
	// ("interp", "bytecode"; empty elsewhere). TierICHits is the fleet
	// total of inline-cache hits merged across pool workers, deterministic
	// for a given seed (single closed-loop client, FIFO worker rotation).
	Tier       string `json:"tier,omitempty"`
	TierICHits int64  `json:"tier_ic_hits,omitempty"`
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
