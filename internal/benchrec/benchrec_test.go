package benchrec

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// quickOpts is the matrix configuration every test runs (the full scale
// is for committed records, not unit tests).
func quickOpts() Options { return Options{Scale: "quick", Seed: 7} }

// runOnce caches one quick matrix run for the whole test file — the
// matrix is seconds of work and several tests only need any valid
// record.
var cachedRec *Record

func matrixRecord(t *testing.T) Record {
	t.Helper()
	if cachedRec == nil {
		rec, err := RunMatrix(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		cachedRec = &rec
	}
	return *cachedRec
}

func TestMatrixShape(t *testing.T) {
	rec := matrixRecord(t)
	if rec.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", rec.Schema, SchemaVersion)
	}
	if rec.GoVersion == "" || rec.GOOS == "" || rec.GOARCH == "" || rec.CreatedAt == "" {
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
		if sc.ReqPerSec <= 0 || sc.WallMS <= 0 || sc.P99US <= 0 {
			t.Errorf("%s: timing fields empty: req/s %.1f wall %.1fms p99 %.1fus", name, sc.ReqPerSec, sc.WallMS, sc.P99US)
		}
		if sc.SimCyclesPerReq <= 0 {
			t.Errorf("%s: no simulated cycles", name)
		}
		for _, cat := range []string{"hash", "heap", "string", "regex", "other"} {
			if _, ok := sc.SimCategoryCycles[cat]; !ok {
				t.Errorf("%s: category %q missing from breakdown", name, cat)
			}
		}
	}

	// The accelerator sweep must show the paper's direction: the
	// accelerated config simulates fewer cycles per request.
	on, _ := rec.Scenario("direct")
	off, _ := rec.Scenario("accel_off")
	if on.SimCyclesPerReq >= off.SimCyclesPerReq {
		t.Errorf("accelerated %.0f cycles/req not below baseline %.0f", on.SimCyclesPerReq, off.SimCyclesPerReq)
	}

	// The cached scenario must actually exercise the cache at a
	// meaningful hit ratio (128 entries over 512 Zipf(1.0) pages gives
	// an analytic ceiling near 0.8).
	cz, _ := rec.Scenario("cache_zipf")
	if cz.CacheHits == 0 || cz.CacheHitRatio < 0.3 {
		t.Errorf("cache scenario hit ratio %.2f (hits %d) too low to be meaningful", cz.CacheHitRatio, cz.CacheHits)
	}
	if cz.CacheHits+cz.CacheMisses+cz.CacheCoalesced != cz.Served {
		t.Errorf("cache outcomes don't partition served: %+v", cz)
	}

	// Cluster sweep: the backend count and stall must be recorded (they
	// gate comparability), every request must be served, and splitting
	// the fixed cache budget across hash-partitioned backends must keep
	// the aggregate hit ratio near the one-backend figure. The scaling
	// claim itself (throughput up with backends) is wall-clock-dependent
	// and is gated by bench-check against the committed record, not here.
	single, _ := rec.Scenario("cluster_zipf_1")
	if single.Backends != 1 || single.DBWaitMS <= 0 {
		t.Errorf("cluster_zipf_1 config not recorded: backends %d dbwait %.1fms", single.Backends, single.DBWaitMS)
	}
	for _, name := range []string{"cluster_zipf_2", "cluster_zipf_4"} {
		sc, ok := rec.Scenario(name)
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

	// Scripted tier pair: the interp baseline must stay on the
	// tree-walker, the auto side must have promoted during warmup and
	// served the measured phase (mostly) from the bytecode tier, and the
	// promotion must show up as cheaper simulated dispatch. Both record
	// the Fig. 1 profile gauges so the trajectory captures the flat
	// profile reshaping under tier-up.
	si, _ := rec.Scenario("scripted_zipf_interp")
	sa, _ := rec.Scenario("scripted_zipf")
	if si.Tier != "interp" || si.TierBytecodeCalls != 0 || si.TierInterpCalls == 0 {
		t.Errorf("scripted_zipf_interp should run entirely on the interpreter: %+v", si)
	}
	if sa.Tier != "auto" || sa.TierPromotions == 0 || sa.TierPromotedFunctions == 0 {
		t.Errorf("scripted_zipf should promote under the default policy: %+v", sa)
	}
	if sa.TierBytecodeCalls == 0 || sa.TierICHits == 0 {
		t.Errorf("scripted_zipf should serve bytecode calls with inline-cache hits: %+v", sa)
	}
	if si.ProfileHottestFrac <= 0 || si.ProfileFuncsFor65 <= 0 ||
		sa.ProfileHottestFrac <= 0 || sa.ProfileFuncsFor65 <= 0 {
		t.Errorf("scripted scenarios should record the Fig. 1 profile gauges: interp %+v auto %+v", si, sa)
	}
	if sa.SimCyclesPerReq >= si.SimCyclesPerReq {
		t.Errorf("bytecode tier should simulate cheaper dispatch: auto %.0f cycles/req vs interp %.0f",
			sa.SimCyclesPerReq, si.SimCyclesPerReq)
	}
}

// TestMatrixDeterministic is the record-identity property: two runs
// with the same seed and scale must serialize to byte-identical
// canonical JSON (everything except the documented timing fields).
func TestMatrixDeterministic(t *testing.T) {
	a := matrixRecord(t)
	b, err := RunMatrix(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Canonical().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Canonical().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed+scale produced different canonical records:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}

	// A different seed must actually change the canonical record
	// (otherwise the property above would be vacuous).
	c, err := RunMatrix(Options{Scale: "quick", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := c.Canonical().MarshalIndent()
	if bytes.Equal(ja, jc) {
		t.Error("different seeds produced identical canonical records")
	}
}

// TestMergeBestTrial: the trial fold keeps each wall-clock metric's
// best observed value per scenario and rejects trials whose
// deterministic remainder diverged.
func TestMergeBestTrial(t *testing.T) {
	base := matrixRecord(t)
	trial := matrixRecord(t) // same underlying record: deterministic fields agree

	best := base
	best.Scenarios = append([]Scenario(nil), base.Scenarios...)
	// Doctor the trial's wall-clock fields both ways on scenario 0:
	// faster throughput and allocs must be taken, slower p99 must not.
	trial.Scenarios = append([]Scenario(nil), trial.Scenarios...)
	trial.Scenarios[0].ReqPerSec = base.Scenarios[0].ReqPerSec * 2
	trial.Scenarios[0].AllocsPerOp = base.Scenarios[0].AllocsPerOp - 1
	trial.Scenarios[0].P99US = base.Scenarios[0].P99US * 2
	if err := mergeBestTrial(&best, trial); err != nil {
		t.Fatal(err)
	}
	if got, want := best.Scenarios[0].ReqPerSec, base.Scenarios[0].ReqPerSec*2; got != want {
		t.Errorf("req/s not upgraded: got %g want %g", got, want)
	}
	if got, want := best.Scenarios[0].AllocsPerOp, base.Scenarios[0].AllocsPerOp-1; got != want {
		t.Errorf("allocs not upgraded: got %g want %g", got, want)
	}
	if got, want := best.Scenarios[0].P99US, base.Scenarios[0].P99US; got != want {
		t.Errorf("worse p99 leaked into best: got %g want %g", got, want)
	}

	// A deterministic-field divergence is a nondeterminism bug, not
	// noise to merge over.
	bad := base
	bad.Scenarios = append([]Scenario(nil), base.Scenarios...)
	bad.Scenarios[1].SimCyclesPerReq++
	if err := mergeBestTrial(&best, bad); err == nil {
		t.Fatal("merge accepted a trial with diverged deterministic fields")
	}
}

func TestCanonicalZeroesTimingFields(t *testing.T) {
	rec := matrixRecord(t)
	can := rec.Canonical()
	if can.Seq != 0 || can.CreatedAt != "" {
		t.Errorf("canonical kept identity fields: seq %d, created_at %q", can.Seq, can.CreatedAt)
	}
	for _, sc := range can.Scenarios {
		if sc.ReqPerSec != 0 || sc.WallMS != 0 || sc.P50US != 0 || sc.P95US != 0 || sc.P99US != 0 || sc.AllocsPerOp != 0 {
			t.Errorf("canonical kept timing fields in %s: %+v", sc.Name, sc)
		}
		if sc.SimCyclesPerReq == 0 {
			t.Errorf("canonical dropped simulated fields in %s", sc.Name)
		}
	}
	// Canonical must not mutate the original.
	if rec.Scenarios[0].ReqPerSec == 0 {
		t.Error("Canonical mutated its receiver")
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
}

func TestCompareCleanSelf(t *testing.T) {
	rec := matrixRecord(t)
	regs, err := Compare(rec, rec, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("self-comparison reported regressions: %v", regs)
	}
}

// TestCompareCatchesInjectedRegressions doctors a copy of a real record
// past each tolerance and checks every gate trips — the synthetic
// failure path `make bench-check`'s short mode exercises.
func TestCompareCatchesInjectedRegressions(t *testing.T) {
	base := matrixRecord(t)
	fresh := base.Canonical() // deep-ish copy of scenarios
	// Canonical zeroed the timing fields; restore them from base, then
	// doctor three different scenarios three different ways.
	fresh.Scale, fresh.Seed = base.Scale, base.Seed
	for i := range fresh.Scenarios {
		fresh.Scenarios[i].ReqPerSec = base.Scenarios[i].ReqPerSec
		fresh.Scenarios[i].P50US = base.Scenarios[i].P50US
		fresh.Scenarios[i].P95US = base.Scenarios[i].P95US
		fresh.Scenarios[i].P99US = base.Scenarios[i].P99US
		fresh.Scenarios[i].AllocsPerOp = base.Scenarios[i].AllocsPerOp
	}
	fresh.Scenarios[0].ReqPerSec *= 0.80 // −20% throughput: beyond −5%
	fresh.Scenarios[1].P99US *= 1.50     // +50% p99: beyond +10%
	fresh.Scenarios[2].AllocsPerOp += 1  // +1 alloc/op: beyond the 0.5 slack

	regs, err := Compare(base, fresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		base.Scenarios[0].Name + "/req_per_sec":   true,
		base.Scenarios[1].Name + "/p99_us":        true,
		base.Scenarios[2].Name + "/allocs_per_op": true,
	}
	got := map[string]bool{}
	for _, r := range regs {
		got[r.Scenario+"/"+r.Metric] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("injected regression %s not reported (got %v)", k, regs)
		}
	}
	if len(regs) != len(want) {
		t.Errorf("reported %d regressions, want %d: %v", len(regs), len(want), regs)
	}

	table := RenderTable(base, fresh, regs)
	if !strings.Contains(table, "FAIL") || !strings.Contains(table, "req_per_sec") {
		t.Errorf("table does not mark failures:\n%s", table)
	}

	// Moves within tolerance must stay clean.
	ok := fresh
	ok.Scenarios = append([]Scenario(nil), fresh.Scenarios...)
	ok.Scenarios[0] = base.Scenarios[0]
	ok.Scenarios[1] = base.Scenarios[1]
	ok.Scenarios[2] = base.Scenarios[2]
	ok.Scenarios[0].ReqPerSec *= 0.97 // −3%: inside −5%
	ok.Scenarios[1].P99US *= 1.05     // +5%: inside +10%
	regs, err = Compare(base, ok, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("within-tolerance drift reported as regression: %v", regs)
	}
}

// TestCompareCalibrationRelaxes: a calibrated host slowdown widens the
// wall-clock limits by the measured factor (so a slower shared host
// cannot fake a regression), while a *faster* fresh host never
// tightens them — and uncalibrated records compare unnormalized.
func TestCompareCalibrationRelaxes(t *testing.T) {
	base := matrixRecord(t)
	base.CalibOpsPerSec = 1000

	// Fresh host measured 2x slower; every wall-clock metric 2x worse.
	// Without calibration this fails throughput and p99 everywhere;
	// with it, the doubled limits absorb the slowdown exactly.
	fresh := base
	fresh.CalibOpsPerSec = 500
	fresh.Scenarios = append([]Scenario(nil), base.Scenarios...)
	for i := range fresh.Scenarios {
		fresh.Scenarios[i].ReqPerSec /= 2
		fresh.Scenarios[i].P99US *= 2
	}
	regs, err := Compare(base, fresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("calibrated 2x slowdown reported as regression: %v", regs)
	}

	// The same numbers without calibration must fail.
	uncal, uncalFresh := base, fresh
	uncal.CalibOpsPerSec, uncalFresh.CalibOpsPerSec = 0, 0
	regs, err = Compare(uncal, uncalFresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Error("uncalibrated 2x slowdown compared clean")
	}

	// A genuine regression beyond the slowdown still trips.
	bad := fresh
	bad.Scenarios = append([]Scenario(nil), fresh.Scenarios...)
	bad.Scenarios[0].ReqPerSec = base.Scenarios[0].ReqPerSec / 4
	regs, err = Compare(base, bad, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "req_per_sec" {
		t.Errorf("regression beyond calibrated slowdown not isolated: %v", regs)
	}

	// A faster fresh host (ratio > 1) must not tighten the gates:
	// identical wall-clock numbers stay clean.
	faster := base
	faster.CalibOpsPerSec = 4000
	faster.Scenarios = append([]Scenario(nil), base.Scenarios...)
	regs, err = Compare(base, faster, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("faster host tightened the gate: %v", regs)
	}
}

func TestCompareRejectsIncomparable(t *testing.T) {
	rec := matrixRecord(t)
	other := rec
	other.Seed++
	if _, err := Compare(rec, other, DefaultTolerances()); err == nil {
		t.Error("seed mismatch must error, not pass")
	}
	other = rec
	other.Schema++
	if _, err := Compare(rec, other, DefaultTolerances()); err == nil {
		t.Error("schema mismatch must error")
	}
	other = rec
	other.Scenarios = append([]Scenario(nil), rec.Scenarios...)
	other.Scenarios[0].Requests++
	if _, err := Compare(rec, other, DefaultTolerances()); err == nil {
		t.Error("config drift must error")
	}
	other = rec
	other.Scenarios = rec.Scenarios[:1]
	if _, err := Compare(rec, other, DefaultTolerances()); err == nil {
		t.Error("missing scenario must error")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := RunMatrix(Options{Scale: "huge"}); err == nil {
		t.Error("unknown scale must error")
	}
	o := Options{}
	if err := o.normalize(); err != nil || o.Scale != "full" || o.Seed != 1 {
		t.Errorf("defaults = %+v, %v; want full/1", o, err)
	}
}

// TestSimDrift: wall-clock movement is not drift, and any change to a
// deterministic field is — named by scenario and field.
func TestSimDrift(t *testing.T) {
	base := matrixRecord(t)
	fresh := base
	fresh.Scenarios = append([]Scenario(nil), base.Scenarios...)
	fresh.Scenarios[0].ReqPerSec *= 0.5
	fresh.Scenarios[1].P99US *= 3
	fresh.Scenarios[2].AllocsPerOp += 7
	if drift := SimDrift(base, fresh); len(drift) != 0 {
		t.Errorf("timing-only changes reported as drift: %v", drift)
	}
	fresh.Scenarios[0].SimCyclesPerReq++
	fresh.Scenarios[3].CacheHits--
	drift := SimDrift(base, fresh)
	if len(drift) != 2 || !strings.Contains(drift[0], base.Scenarios[0].Name+": SimCyclesPerReq") ||
		!strings.Contains(drift[1], base.Scenarios[3].Name+": CacheHits") {
		t.Errorf("drift = %v, want the two doctored fields", drift)
	}
}
