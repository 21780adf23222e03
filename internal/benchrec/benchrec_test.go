package benchrec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSeed is the seed every test runs the matrix at — not the committed
// records' seed 1, so the tests cannot lean on a committed value.
const testSeed = 7

// cachedRec caches one matrix run for the whole test file — the matrix
// is seconds of work and several tests only need any valid record.
var cachedRec *Record

func matrixRecord(t *testing.T) Record {
	t.Helper()
	if cachedRec == nil {
		rec, err := RunMatrix(Options{Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		cachedRec = &rec
	}
	return *cachedRec
}

// scenario returns the named scenario and whether it exists.
func (r Record) scenario(name string) (Scenario, bool) {
	for _, sc := range r.Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

func TestMatrixShape(t *testing.T) {
	rec := matrixRecord(t)
	if rec.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", rec.Schema, SchemaVersion)
	}
	if rec.GoVersion == "" || rec.GOOS == "" || rec.GOARCH == "" || rec.Seed != testSeed {
		t.Errorf("environment fields missing: %+v", rec)
	}
	if len(rec.Scenarios) != len(ScenarioNames()) {
		t.Fatalf("got %d scenarios, want %d", len(rec.Scenarios), len(ScenarioNames()))
	}
	for i, name := range ScenarioNames() {
		sc := rec.Scenarios[i]
		if sc.Name != name {
			t.Fatalf("scenario %d = %q, want %q (matrix order is part of the schema)", i, sc.Name, name)
		}
		if sc.Served != sc.Requests {
			t.Errorf("%s: served %d of %d (unexpected sheds: %d/%d/%d/%d)", name,
				sc.Served, sc.Requests, sc.ShedOverload, sc.ShedDeadline, sc.ShedCanceled, sc.ShedDraining)
		}
		if sc.AllocsPerOp <= 0 {
			t.Errorf("%s: no allocs/op measured", name)
		}
		if sc.SimCyclesPerReq <= 0 {
			t.Errorf("%s: no simulated cycles", name)
		}
		for _, cat := range []string{"hash", "heap", "string", "regex", "other"} {
			if _, ok := sc.SimCategoryCycles[cat]; !ok {
				t.Errorf("%s: category %q missing from breakdown", name, cat)
			}
		}
		// The leaf rows are what the category totals sum, equal up to
		// summation order.
		var rows float64
		for _, c := range sc.SimFnCycles {
			rows += c
		}
		if total := sc.SimCyclesPerReq * float64(sc.Served); len(sc.SimFnCycles) < 20 || math.Abs(rows-total) > 1e-9*total {
			t.Errorf("%s: %d leaf rows sum to %v, want the %v cycles of the run", name, len(sc.SimFnCycles), rows, total)
		}
	}

	// The accelerator sweep must show the paper's direction: the
	// accelerated config simulates fewer cycles per request.
	on, _ := rec.scenario("direct")
	off, _ := rec.scenario("accel_off")
	if on.SimCyclesPerReq >= off.SimCyclesPerReq {
		t.Errorf("accelerated %.0f cycles/req not below baseline %.0f", on.SimCyclesPerReq, off.SimCyclesPerReq)
	}

	// The cached scenario must actually exercise the cache at a
	// meaningful hit ratio (128 entries over 512 Zipf(1.0) pages gives
	// an analytic ceiling near 0.8).
	cz, _ := rec.scenario("cache_zipf")
	if cz.CacheHits == 0 || cz.CacheHitRatio < 0.3 {
		t.Errorf("cache scenario hit ratio %.2f (hits %d) too low to be meaningful", cz.CacheHitRatio, cz.CacheHits)
	}
	if cz.CacheHits+cz.CacheMisses+cz.CacheCoalesced != cz.Served {
		t.Errorf("cache outcomes don't partition served: %+v", cz)
	}

	// Cluster sweep: the backend count must be recorded (it gates
	// comparability), every request must be served, and splitting the
	// fixed cache budget across hash-partitioned backends must keep the
	// aggregate hit ratio near the one-backend figure. The scaling claim
	// itself (throughput up with backends) is a host-clock one, gated by
	// serve's TestClusterDBWaitOverlaps, not here.
	single, _ := rec.scenario("cluster_zipf_1")
	if single.Backends != 1 {
		t.Errorf("cluster_zipf_1 config not recorded: backends %d", single.Backends)
	}
	for _, name := range []string{"cluster_zipf_2", "cluster_zipf_4"} {
		sc, ok := rec.scenario(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		if sc.Workers != 1 || sc.Backends != sc.Clients || sc.CacheCapacity != single.CacheCapacity {
			t.Errorf("%s config: %+v", name, sc)
		}
		drift := sc.CacheHitRatio - single.CacheHitRatio
		if drift < 0 {
			drift = -drift
		}
		if drift > 0.05 {
			t.Errorf("%s hit ratio %.3f vs single-backend %.3f: drift %.3f > 0.05",
				name, sc.CacheHitRatio, single.CacheHitRatio, drift)
		}
	}

	// Scripted pair: the interp baseline runs on the tree-walker (no
	// inline caches), the bytecode side hits its inline caches, and the
	// compiled engine shows up as cheaper simulated dispatch.
	si, _ := rec.scenario("scripted_zipf_interp")
	sb, _ := rec.scenario("scripted_zipf")
	if si.Tier != "interp" || si.TierICHits != 0 {
		t.Errorf("scripted_zipf_interp should run on the interpreter: %+v", si)
	}
	if sb.Tier != "bytecode" || sb.TierICHits == 0 {
		t.Errorf("scripted_zipf should run bytecode with inline-cache hits: %+v", sb)
	}
	if sb.SimCyclesPerReq >= si.SimCyclesPerReq {
		t.Errorf("bytecode should simulate cheaper dispatch: %.0f cycles/req vs interp %.0f",
			sb.SimCyclesPerReq, si.SimCyclesPerReq)
	}
}

// withoutAllocs returns a copy of rec with allocs/op — the one field
// that is not exactly reproducible — zeroed.
func withoutAllocs(rec Record) Record {
	rec = doctored(rec)
	for i := range rec.Scenarios {
		rec.Scenarios[i].AllocsPerOp = 0
	}
	return rec
}

// TestMatrixDeterministic is the record-identity property: two runs
// with the same seed must serialize to byte-identical JSON apart from
// allocs/op, and compare clean including it.
func TestMatrixDeterministic(t *testing.T) {
	a := matrixRecord(t)
	b, err := RunMatrix(Options{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := withoutAllocs(a).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := withoutAllocs(b).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different records:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}
	if drift := SimDrift(a, b); len(drift) != 0 {
		t.Errorf("second run at the same seed drifted: %v", drift)
	}

	// A different seed must actually change the record (otherwise the
	// property above would be vacuous).
	c, err := RunMatrix(Options{Seed: testSeed + 1})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := withoutAllocs(c).MarshalIndent()
	if bytes.Equal(ja, jc) {
		t.Error("different seeds produced identical records")
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := matrixRecord(t)
	rec.Seq = 3
	path, err := Write(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_3.json" {
		t.Errorf("wrote %s, want BENCH_3.json", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(rec)
	jb, _ := json.Marshal(got)
	if !bytes.Equal(ja, jb) {
		t.Error("record did not round-trip")
	}
	if _, err := Write(dir, rec); err == nil {
		t.Error("overwriting an existing record must fail (append-only trajectory)")
	}
	seq, err := LatestSeq(dir)
	if err != nil || seq != 3 {
		t.Errorf("LatestSeq = %d, %v; want 3", seq, err)
	}
}

func TestLatestSeqEmpty(t *testing.T) {
	seq, err := LatestSeq(t.TempDir())
	if err != nil || seq != 0 {
		t.Errorf("LatestSeq on empty dir = %d, %v; want 0, nil", seq, err)
	}
}

func TestLoadRejectsNonRecords(t *testing.T) {
	if _, err := Load("/nonexistent/BENCH_1.json"); err == nil {
		t.Error("missing file must error")
	}
	for name, body := range map[string]string{
		"not JSON":       "BENCH",
		"no schema":      `{"scenarios":[{"name":"direct"}]}`,
		"no scenarios":   `{"schema":2}`,
		"future schema":  `{"schema":4,"scenarios":[{"name":"direct"}]}`,
		"another format": `{"command":["sh","benchmark/run.sh"]}`,
	} {
		path := filepath.Join(t.TempDir(), "rec.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s must not load as a record", name)
		}
	}
}

// removedV1Keys are the schema 1 JSON keys schema 2 dropped.
var removedV1Keys = []string{"req_per_sec", "wall_ms", "p50_us", "p95_us", "p99_us",
	"calib_ops_per_sec", "created_at", "scale", "db_wait_ms"}

// TestLoadCommittedTrajectory: the older records stay readable. It
// runs nothing — the last schema 1 record loads, compares clean against
// itself and against its own rewrite at the current schema (the
// comparison sees only the fields both schemas carry), and against the
// one committed schema 2 record, which compares clean against the first
// schema 3 record. Those two steps are compared on the deterministic
// fields alone: each of them also recorded an allocation gain, which the
// gate reports as drift by design.
func TestLoadCommittedTrajectory(t *testing.T) {
	const root = "../.."
	v1Path := filepath.Join(root, Filename(6))
	v1, err := Load(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Schema != 1 || len(v1.Scenarios) != len(ScenarioNames()) {
		t.Fatalf("%s: schema %d with %d scenarios", v1Path, v1.Schema, len(v1.Scenarios))
	}
	if drift := SimDrift(v1, v1); len(drift) != 0 {
		t.Errorf("schema 1 record drifts from itself: %v", drift)
	}

	raw, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2 := v1
	v2.Schema = SchemaVersion
	rewritten, err := v2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range removedV1Keys {
		quoted := []byte(`"` + key + `"`)
		if !bytes.Contains(raw, quoted) {
			t.Errorf("%s no longer carries %s; pick a record that does", v1Path, key)
		}
		if bytes.Contains(rewritten, quoted) {
			t.Errorf("schema %d still writes %s", SchemaVersion, key)
		}
	}
	if drift := SimDrift(v1, v2); len(drift) != 0 {
		t.Errorf("schema 1 vs its schema 2 rewrite: %v", drift)
	}
	v2.Scenarios = append([]Scenario(nil), v1.Scenarios...)
	v2.Scenarios[0].SimCyclesPerReq++
	if drift := SimDrift(v1, v2); len(drift) != 1 {
		t.Errorf("one doctored field across schemas, drift = %v", drift)
	}

	first2, err := Load(filepath.Join(root, Filename(7)))
	if err != nil {
		t.Fatal(err)
	}
	if first2.Schema != 2 {
		t.Errorf("BENCH_7.json is schema %d, want 2", first2.Schema)
	}
	if drift := SimDrift(withoutAllocs(v1), withoutAllocs(first2)); len(drift) != 0 {
		t.Errorf("BENCH_6.json vs BENCH_7.json: %v", drift)
	}

	first3, err := Load(filepath.Join(root, Filename(8)))
	if err != nil {
		t.Fatal(err)
	}
	if first3.Schema != 3 || len(first3.Scenarios[0].SimFnCycles) == 0 {
		t.Errorf("BENCH_8.json is schema %d with %d leaf rows, want 3 and every row", first3.Schema, len(first3.Scenarios[0].SimFnCycles))
	}
	if drift := SimDrift(withoutAllocs(first2), withoutAllocs(first3)); len(drift) != 0 {
		t.Errorf("BENCH_7.json vs BENCH_8.json: %v", drift)
	}
}

// TestSimDriftNamesTheLeaf: a moved leaf function prints its own line
// after its category's, and a base that predates the leaf rows (schema
// 2) compares nothing there.
func TestSimDriftNamesTheLeaf(t *testing.T) {
	record := func(hash, lookup float64) Record {
		return Record{Schema: SchemaVersion, Seed: 1, Scenarios: []Scenario{{
			Name:              "cache_zipf",
			SimCategoryCycles: map[string]float64{"hash": hash, "other": 500},
			SimFnCycles:       map[string]float64{"zend_hash_find [hash]": 426120, "response_cache_lookup [hash]": lookup, "jit_compiled_code [other]": 500},
		}}}
	}
	base, fresh := record(426249, 129), record(426378, 258)
	want := []string{
		"cache_zipf: SimCategoryCycles[hash] 426249 -> 426378",
		"cache_zipf: SimFnCycles[response_cache_lookup [hash]] 129 -> 258",
	}
	if drift := SimDrift(base, fresh); strings.Join(drift, "\n") != strings.Join(want, "\n") {
		t.Errorf("drift = %q, want %q", drift, want)
	}

	schema2 := record(426378, 0)
	schema2.Schema, schema2.Scenarios[0].SimFnCycles = 2, nil
	if drift := SimDrift(schema2, fresh); len(drift) != 0 {
		t.Errorf("schema 2 base against schema 3: drift = %q, want none", drift)
	}
}

// doctored returns a copy of rec whose scenarios can be edited without
// touching rec's.
func doctored(rec Record) Record {
	rec.Scenarios = append([]Scenario(nil), rec.Scenarios...)
	return rec
}

func TestCompareCleanSelf(t *testing.T) {
	rec := matrixRecord(t)
	if drift := SimDrift(rec, rec); len(drift) != 0 {
		t.Errorf("self-comparison reported drift: %v", drift)
	}
	// allocs/op inside its slack, either way, is clean.
	fresh := doctored(rec)
	fresh.Scenarios[0].AllocsPerOp += 0.4  // direct: inside +0.5
	fresh.Scenarios[2].AllocsPerOp += 0.05 // scheduler: inside +0.1
	fresh.Scenarios[3].AllocsPerOp -= 0.05 // cache_zipf: inside -0.1
	fresh.Scenarios[4].AllocsPerOp += 0.4  // cluster_zipf_1, over loopback: inside +0.5
	if drift := SimDrift(rec, fresh); len(drift) != 0 {
		t.Errorf("within-slack allocs/op reported as drift: %v", drift)
	}
}

// TestCompareCatchesInjectedRegressions doctors allocs/op past each
// slack: +0.2 sits between the serve slack (0.1) and the direct slack
// (0.5), so it must trip a scheduler-driven scenario and not a direct
// one; +1 — the least a real added allocation costs — trips both. A fall
// past the slack is reported too, with the advice to re-record.
func TestCompareCatchesInjectedRegressions(t *testing.T) {
	base := matrixRecord(t)
	direct, sched := base.Scenarios[0], base.Scenarios[2]
	if direct.Clients != 0 || sched.Clients == 0 {
		t.Fatalf("matrix order changed: %s clients %d, %s clients %d", direct.Name, direct.Clients, sched.Name, sched.Clients)
	}

	fresh := doctored(base)
	fresh.Scenarios[0].AllocsPerOp += 0.2
	fresh.Scenarios[2].AllocsPerOp += 0.2
	drift := SimDrift(base, fresh)
	if len(drift) != 1 || !strings.HasPrefix(drift[0], sched.Name+": AllocsPerOp ") {
		t.Errorf("+0.2 allocs/op: drift = %v, want only %s", drift, sched.Name)
	}

	fresh.Scenarios[0].AllocsPerOp = direct.AllocsPerOp + 1
	fresh.Scenarios[2].AllocsPerOp = sched.AllocsPerOp + 1
	drift = SimDrift(base, fresh)
	if len(drift) != 2 || !strings.HasPrefix(drift[0], direct.Name+": AllocsPerOp ") ||
		!strings.HasPrefix(drift[1], sched.Name+": AllocsPerOp ") {
		t.Errorf("+1 allocs/op: drift = %v, want %s and %s", drift, direct.Name, sched.Name)
	}

	fresh = doctored(base)
	fresh.Scenarios[3].AllocsPerOp -= 7 // cache_zipf
	drift = SimDrift(base, fresh)
	if len(drift) != 1 || !strings.HasPrefix(drift[0], base.Scenarios[3].Name+": AllocsPerOp ") || !strings.Contains(drift[0], "make bench-record") {
		t.Errorf("-7 allocs/op: drift = %v, want one %s line that says to re-record", drift, base.Scenarios[3].Name)
	}
}

// TestCompareRejectsIncomparable: a different seed or any pinned
// configuration field off by one is drift, never a clean pass —
// including the fields the old hand-written list left out.
func TestCompareRejectsIncomparable(t *testing.T) {
	rec := matrixRecord(t)
	other := rec
	other.Seed++
	if drift := SimDrift(rec, other); len(drift) != 1 || !strings.HasPrefix(drift[0], "record: Seed ") {
		t.Errorf("seed mismatch: drift = %v", drift)
	}
	for field, edit := range map[string]func(*Scenario){
		"Requests":   func(sc *Scenario) { sc.Requests++ },
		"Clients":    func(sc *Scenario) { sc.Clients++ },
		"QueueDepth": func(sc *Scenario) { sc.QueueDepth++ },
		"TimeoutMS":  func(sc *Scenario) { sc.TimeoutMS++ },
		"ZipfS":      func(sc *Scenario) { sc.ZipfS += 0.1 },
		"Backends":   func(sc *Scenario) { sc.Backends++ },
		"Tier":       func(sc *Scenario) { sc.Tier = "bytecode" },
	} {
		other = doctored(rec)
		edit(&other.Scenarios[3])
		want := rec.Scenarios[3].Name + ": " + field + " "
		if drift := SimDrift(rec, other); len(drift) != 1 || !strings.HasPrefix(drift[0], want) {
			t.Errorf("%s off: drift = %v, want one line starting %q", field, drift, want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	o := Options{}
	if o.normalize(); o.Seed != 1 {
		t.Errorf("default seed = %d, want 1", o.Seed)
	}
	o = Options{Seed: 9}
	if o.normalize(); o.Seed != 9 {
		t.Errorf("explicit seed overwritten: %d", o.Seed)
	}
}

// TestSimDrift: any change to a deterministic field is drift, named by
// scenario and field and nothing else — and so is a scenario present on
// only one side, in either direction.
func TestSimDrift(t *testing.T) {
	base := matrixRecord(t)
	fresh := doctored(base)
	fresh.Scenarios[4].SimCyclesPerReq++
	drift := SimDrift(base, fresh)
	if len(drift) != 1 || !strings.HasPrefix(drift[0], base.Scenarios[4].Name+": SimCyclesPerReq ") {
		t.Errorf("+1 cycle/req in one scenario: drift = %v", drift)
	}

	fresh.Scenarios[3].CacheHits--
	cats := map[string]float64{}
	for k, v := range base.Scenarios[8].SimCategoryCycles {
		cats[k] = v
	}
	cats["hash"]++
	fresh.Scenarios[8].SimCategoryCycles = cats
	drift = SimDrift(base, fresh)
	if len(drift) != 3 || !strings.HasPrefix(drift[0], base.Scenarios[3].Name+": CacheHits ") ||
		!strings.HasPrefix(drift[2], base.Scenarios[8].Name+": SimCategoryCycles[hash] ") {
		t.Errorf("drift = %v, want the three doctored fields in matrix order", drift)
	}

	short := base
	short.Scenarios = base.Scenarios[:len(base.Scenarios)-1]
	gone := base.Scenarios[len(base.Scenarios)-1].Name
	if drift := SimDrift(base, short); len(drift) != 1 || !strings.HasPrefix(drift[0], gone+": missing") {
		t.Errorf("scenario missing from the fresh side: drift = %v", drift)
	}
	if drift := SimDrift(short, base); len(drift) != 1 || !strings.HasPrefix(drift[0], gone+": not in") {
		t.Errorf("scenario missing from the committed side: drift = %v", drift)
	}
}
