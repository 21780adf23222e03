package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The experiment tests assert the *shape* of every reproduced figure:
// who wins, in what order, where the curves bend. Every number the paper
// states, and the band around it, is a row of paperTable (held checks
// them); the exact values are pinned by FIGURES.json under `make
// bench-check`, not here. One Report is built per test binary.

var (
	buildOnce sync.Once
	built     Report
	buildErr  error
)

func report(t *testing.T) Report {
	t.Helper()
	buildOnce.Do(func() { built, buildErr = Build(nil) })
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return built
}

// get returns one value of the shared report; a value the report does
// not hold fails the test.
func get(t *testing.T, figure, row, metric string) float64 {
	t.Helper()
	v, ok := report(t).Get(figure, row, metric)
	if !ok {
		t.Fatalf("the report has no %s", Value{Figure: figure, Row: row, Metric: metric}.Key())
	}
	return v
}

// rowsOf lists a figure's row labels in order.
func rowsOf(t *testing.T, figure string) []string {
	t.Helper()
	var rows []string
	for _, v := range report(t) {
		if v.Figure == figure && (len(rows) == 0 || rows[len(rows)-1] != v.Row) {
			rows = append(rows, v.Row)
		}
	}
	return rows
}

// held checks every paperTable row of one figure against the report.
func held(t *testing.T, figure string) {
	t.Helper()
	n := 0
	for _, p := range paperTable {
		if p.Figure != figure {
			continue
		}
		n++
		if got := get(t, p.Figure, p.Row, p.Metric); math.Abs(got-p.Value) > p.Tol {
			t.Errorf("%s[%s].%s = %.4f, paper %v ± %v", p.Figure, p.Row, p.Metric, got, p.Value, p.Tol)
		}
	}
	if n == 0 {
		t.Fatalf("paperTable has no row for %s", figure)
	}
}

// TestPaperTable: every row names a value the report holds (an absent
// one fails here, it is not skipped) and is inside its band; no value is
// listed twice; a band wider than 10% of its paper value says why.
func TestPaperTable(t *testing.T) {
	seen := map[string]bool{}
	figs := map[string]bool{}
	for _, p := range paperTable {
		key := Value{Figure: p.Figure, Row: p.Row, Metric: p.Metric}.Key()
		if seen[key] {
			t.Errorf("%s is listed twice", key)
		}
		seen[key] = true
		if p.Tol < 0 {
			t.Errorf("%s: negative tolerance", key)
		}
		if p.Tol > 0.1*math.Abs(p.Value) && p.Note == "" && !wideBandExplained(p) {
			t.Errorf("%s: band ± %v is wider than 10%% of %v and no row of its group says why", key, p.Tol, p.Value)
		}
		if !figs[p.Figure] {
			figs[p.Figure] = true
			held(t, p.Figure)
		}
	}
}

// wideBandExplained: rows that repeat one paper value for several
// workloads carry the note once, on the first of the group.
func wideBandExplained(p paper) bool {
	for _, q := range paperTable {
		if q.Figure == p.Figure && q.Metric == p.Metric && q.Value == p.Value && q.Tol == p.Tol && q.Note != "" {
			return true
		}
	}
	return false
}

func TestFigure1Shape(t *testing.T) {
	if rows := rowsOf(t, "fig1"); !reflect.DeepEqual(rows, fig1Apps) {
		t.Fatalf("Figure 1 rows = %v", rows)
	}
	held(t, "fig1")
	held(t, "fig1-cdf")
	// Flat PHP profiles against hotspotted SPECWeb2005.
	for _, spec := range []string{"specweb-banking", "specweb-ecommerce"} {
		for _, app := range phpApps {
			if get(t, "fig1", spec, "funcs@65%") >= get(t, "fig1", app, "funcs@65%") {
				t.Errorf("%s should need fewer functions for 65%% of cycles than %s", spec, app)
			}
			if get(t, "fig1", spec, "hottest%") <= get(t, "fig1", app, "hottest%") {
				t.Errorf("%s should have a hotter hottest function than %s", spec, app)
			}
		}
	}
}

func TestFigure3MitigationsShrinkOverheads(t *testing.T) {
	held(t, "fig3")
	var before, after float64
	for _, row := range rowsOf(t, "fig3") {
		if strings.HasSuffix(row, "[refcount]") || strings.HasSuffix(row, "[typecheck]") {
			before += get(t, "fig3", row, "before%")
			after += get(t, "fig3", row, "after%")
		}
	}
	if before == 0 {
		t.Fatal("baseline shows no abstraction overheads")
	}
	if after >= before {
		t.Errorf("mitigations should collapse the overhead functions: %.2f%% -> %.2f%%", before, after)
	}
	// Everyone else's share rises.
	if row := "jit_compiled_code [other]"; get(t, "fig3", row, "after%") <= get(t, "fig3", row, "before%") {
		t.Errorf("%s should take a larger share once the overheads are gone", row)
	}
}

func TestFigure4CategoriesPresent(t *testing.T) {
	rows := strings.Join(rowsOf(t, "fig4"), "\n")
	for _, c := range []string{"[hash]", "[heap]", "[string]", "[regex]"} {
		if !strings.Contains(rows, c) {
			t.Errorf("category %s missing from the hottest functions", c)
		}
	}
}

func TestFigure5Breakdown(t *testing.T) {
	strRegex := func(app string) float64 {
		return get(t, "fig5", app, "string%") + get(t, "fig5", app, "regex%")
	}
	for _, app := range phpApps {
		// A substantial minority: more than any single function, less
		// than everything else.
		four := get(t, "fig5", app, "four%")
		if four <= get(t, "fig1", app, "hottest%") || four >= get(t, "fig5", app, "other%") {
			t.Errorf("%s: the four categories take %.2f%%", app, four)
		}
		// Paper: Drupal shows the least string+regexp opportunity.
		if app != "drupal" && strRegex("drupal") >= strRegex(app) {
			t.Errorf("drupal should have less string+regex time than %s", app)
		}
	}
}

func TestFigure7HitRates(t *testing.T) {
	held(t, "fig7")
	rows := rowsOf(t, "fig7")
	if len(rows) != 10 {
		t.Fatalf("Figure 7 rows = %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if get(t, "fig7", rows[i], "hit%") < get(t, "fig7", rows[i-1], "hit%") {
			t.Errorf("hit rate dropped from %s to %s entries", rows[i-1], rows[i])
		}
	}
	// SETs never miss, so they must be a real share of the requests.
	if get(t, "fig7", "512", "SETs") == 0 || get(t, "fig7", "512", "GETs") == 0 {
		t.Error("the workload must exercise both GETs and SETs")
	}
}

func TestFigure8aSmallAllocationsDominate(t *testing.T) {
	for _, app := range phpApps {
		// Paper: a majority of requests retrieve at most 128 bytes.
		if got := get(t, "fig8a", app, "<=128"); got <= 50 {
			t.Errorf("%s: <=128B cumulative %.2f%%, want a majority", app, got)
		}
		if got := get(t, "fig8a", app, "<=4096"); got != 100 {
			t.Errorf("%s: cumulative ends at %v%%", app, got)
		}
	}
}

func TestFigure8bcFlatReuse(t *testing.T) {
	held(t, "fig8bc")
	for _, app := range rowsOf(t, "fig8bc") {
		if n := get(t, "fig8bc", app, "samples"); n < 10 {
			t.Errorf("%s: too few timeline samples (%v)", app, n)
		}
		if get(t, "fig8bc", app, "small-min") <= 0 {
			t.Errorf("%s: no live small allocations sampled", app)
		}
	}
	if rows := rowsOf(t, "fig8bc-tail"); len(rows) != 16 {
		t.Errorf("Figure 8b/c tail rows = %v", rows)
	}
}

func TestFigure12SkipFractions(t *testing.T) {
	for _, app := range phpApps {
		sift, reuse, total := get(t, "fig12", app, "sift%"), get(t, "fig12", app, "reuse%"), get(t, "fig12", app, "total%")
		if reuse <= 0 || sift <= reuse {
			t.Errorf("%s: sifting should dominate reuse, and both skip something: %.2f%% vs %.2f%%", app, sift, reuse)
		}
		if total >= 100 {
			t.Errorf("%s: skip fraction %.2f%% impossible", app, total)
		}
	}
}

func TestFigure14HeadlineNumbers(t *testing.T) {
	held(t, "fig14")
	for _, app := range phpApps {
		mit, acc := get(t, "fig14", app, "mitigated%"), get(t, "fig14", app, "accelerated%")
		if acc >= mit || mit >= 100 {
			t.Errorf("%s: want accelerated < mitigated < unmodified, got %.2f%% and %.2f%%", app, acc, mit)
		}
	}
}

func TestFigure15Breakdown(t *testing.T) {
	held(t, "fig15")
	for _, app := range phpApps {
		if get(t, "fig15", app, "total") <= 0 {
			t.Errorf("%s: total accelerator benefit not positive", app)
		}
	}
	// Paper ordering: heap manager, hash table, string, regexp.
	order := []string{"heap-manager", "hash-table", "string-accelerator", "regexp-accelerator"}
	for i := 1; i < len(order); i++ {
		if get(t, "fig15", "average", order[i]) >= get(t, "fig15", "average", order[i-1]) {
			t.Errorf("%s should deliver less than %s on average", order[i], order[i-1])
		}
	}
	// Regexp benefit: WordPress considerable, MediaWiki modest, Drupal
	// nearly none despite its Figure 12 opportunity.
	regexp := func(app string) float64 { return get(t, "fig15", app, "regexp-accelerator") }
	if !(regexp("wordpress") > regexp("mediawiki") && regexp("mediawiki") > regexp("drupal")) {
		t.Error("regexp benefit should order wordpress > mediawiki > drupal")
	}
}

func TestTableKeyStats(t *testing.T) { held(t, "keys") }

func TestTableMicroOps(t *testing.T) { held(t, "uops") }

func TestTableBranchMPKI(t *testing.T) {
	held(t, "mpki")
	for _, app := range phpApps {
		if get(t, "mpki", app, "MPKI") <= get(t, "mpki", "spec", "MPKI") {
			t.Errorf("%s should mispredict more than SPEC", app)
		}
	}
}

func TestFigure2aShape(t *testing.T) {
	held(t, "fig2a")
	btbs := []string{"4K", "8K", "16K", "32K", "64K"}
	for _, ic := range []string{"32K", "64K", "128K"} {
		// Time falls as the BTB grows.
		for i := 1; i < len(btbs); i++ {
			if get(t, "fig2a", btbs[i]+"/"+ic, "time%") > get(t, "fig2a", btbs[i-1]+"/"+ic, "time%") {
				t.Errorf("I$=%s: time rose from a %s to a %s BTB", ic, btbs[i-1], btbs[i])
			}
		}
	}
	// A larger I-cache helps at every BTB size.
	for _, btb := range btbs {
		if get(t, "fig2a", btb+"/128K", "time%") >= get(t, "fig2a", btb+"/32K", "time%") {
			t.Errorf("BTB=%s: a 128K I-cache should beat 32K", btb)
		}
	}
}

func TestFigure2bCachesHealthy(t *testing.T) {
	for _, app := range phpApps {
		// Paper: L2 MPKI is low because L1 filters most references.
		if get(t, "fig2b", app, "L2") > get(t, "fig2b", app, "L1I")+get(t, "fig2b", app, "L1D") {
			t.Errorf("%s: L2 MPKI should be filtered by L1", app)
		}
	}
}

func TestFigure2cShape(t *testing.T) {
	held(t, "fig2c")
	rows := rowsOf(t, "fig2c")
	if len(rows) != 4 {
		t.Fatalf("Figure 2c rows = %v", rows)
	}
	// OoO beats in-order, 4-wide beats 2-wide, 8-wide does not lose.
	for i := 1; i < len(rows); i++ {
		if get(t, "fig2c", rows[i], "time%") >= get(t, "fig2c", rows[i-1], "time%") {
			t.Errorf("%s should beat %s", rows[i], rows[i-1])
		}
	}
}

func TestTableIndirectPredictor(t *testing.T) {
	for _, app := range phpApps {
		if get(t, "indirect", app, "ind/KI") <= 0 {
			t.Errorf("%s: no indirect dispatch in the stream", app)
		}
		if get(t, "indirect", app, "ITTAGE-miss%") >= get(t, "indirect", app, "BTB-miss%") {
			t.Errorf("%s: ITTAGE should beat the BTB on dispatch sites", app)
		}
		if get(t, "indirect", app, "bubbles/KI+ITTAGE") > get(t, "indirect", app, "bubbles/KI") {
			t.Errorf("%s: bubbles increased with ITTAGE", app)
		}
		if get(t, "indirect", app, "RAS-miss%") >= get(t, "indirect", app, "ITTAGE-miss%") {
			t.Errorf("%s: returns should predict better than dispatches", app)
		}
	}
}

func TestTableGeneralization(t *testing.T) {
	held(t, "general")
	rows := rowsOf(t, "general")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, app := range rows {
		if get(t, "general", app, "accelerated%") >= get(t, "general", app, "mitigated%") {
			t.Errorf("%s: the accelerators should help framework workloads too", app)
		}
	}
}

// TestReportKeys: every figure contributes, in the declared order, and
// no key repeats (Drift and Get are keyed walks).
func TestReportKeys(t *testing.T) {
	seen := map[string]bool{}
	var order []string
	for _, v := range report(t) {
		if seen[v.Key()] {
			t.Errorf("%s appears twice", v.Key())
		}
		seen[v.Key()] = true
		if len(order) == 0 || order[len(order)-1] != v.Figure {
			order = append(order, v.Figure)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v", v.Key(), v.Value)
		}
	}
	if !reflect.DeepEqual(order, IDs()) {
		t.Errorf("figures in the report: %v, want %v", order, IDs())
	}
	if _, err := Build([]string{"fig14", "fig99"}); err == nil {
		t.Error("an unknown figure id must be an error")
	}
}

// TestBuildDeterministic: a second build in the same process, of a
// subset that covers all three cores, the traced runs, the heap timeline
// and the uarch models, equals the first to the last bit — so a
// figure's values depend neither on the run nor on which other figures
// were built alongside it.
func TestBuildDeterministic(t *testing.T) {
	only := []string{"mpki", "fig8bc", "fig12", "fig14", "keys"}
	again, err := Build(only)
	if err != nil {
		t.Fatal(err)
	}
	var first Report
	for _, v := range report(t) {
		for _, id := range only {
			if v.Figure == id {
				first = append(first, v)
			}
		}
	}
	if drift := Drift(first, again); len(drift) != 0 || len(first) != len(again) {
		t.Errorf("second build drifted: %v", drift)
	}
}

// TestDrift: any difference at all is one line naming figure, row and
// metric, and so is a value — a row, a whole figure — on one side only.
func TestDrift(t *testing.T) {
	base := report(t)
	doctored := func() Report { return append(Report(nil), base...) }
	if drift := Drift(base, doctored()); len(drift) != 0 {
		t.Errorf("identical reports drifted: %v", drift)
	}

	fresh := doctored()
	i := len(fresh) / 2
	fresh[i].Value = math.Nextafter(fresh[i].Value, math.Inf(1))
	drift := Drift(base, fresh)
	if len(drift) != 1 || !strings.HasPrefix(drift[0], base[i].Key()+" ") {
		t.Errorf("+1 ulp on %s: drift = %v", base[i].Key(), drift)
	}

	without := func(r Report, drop func(Value) bool) Report {
		var out Report
		for _, v := range r {
			if !drop(v) {
				out = append(out, v)
			}
		}
		return out
	}
	for name, drop := range map[string]func(Value) bool{
		"fig14[drupal].":  func(v Value) bool { return v.Figure == "fig14" && v.Row == "drupal" },
		"fig2b[":          func(v Value) bool { return v.Figure == "fig2b" },
		"uops[free].uops": func(v Value) bool { return v.Key() == "uops[free].uops" },
	} {
		smaller := without(base, drop)
		gone := len(base) - len(smaller)
		for side, drift := range map[string][]string{
			"missing from the fresh record": Drift(base, smaller),
			"not in the committed record":   Drift(smaller, base),
		} {
			if len(drift) != gone {
				t.Errorf("%s: %d values %s, drift = %v", name, gone, side, drift)
			}
			for _, line := range drift {
				if !strings.HasPrefix(line, name) || !strings.HasSuffix(line, side) {
					t.Errorf("%s: line %q, want it to name the value and say %q", name, line, side)
				}
			}
		}
	}
}

// TestRecordRoundTrip: the file format keeps every bit, one value per
// line, and Load rejects what is not a record.
func TestRecordRoundTrip(t *testing.T) {
	rep := report(t)
	raw, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != len(rep)+2 {
		t.Errorf("%d lines for %d values", lines, len(rep))
	}
	path := filepath.Join(t.TempDir(), "FIGURES.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if drift := Drift(rep, back); len(drift) != 0 || len(back) != len(rep) {
		t.Errorf("record did not round-trip: %v", drift)
	}
	for name, body := range map[string]string{"not JSON": "FIGURES", "empty": "[]", "another format": `{"schema":2}`} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s must not load as a record", name)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("a missing file must error")
	}
}

// TestExperimentsDocMatchesRecord is the EXPERIMENTS.md pass of `make
// docs-check`: the document's generated block must be exactly what
// Render prints for the committed FIGURES.json. It runs no experiment.
// A difference is reported with the figure it falls under; `make
// bench-record` rewrites both files.
func TestExperimentsDocMatchesRecord(t *testing.T) {
	rec, err := Load("../../FIGURES.json")
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Doc(md)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(md, want) {
		return
	}
	have, should := strings.Split(string(md), "\n"), strings.Split(string(want), "\n")
	if len(have) != len(should) {
		t.Errorf("EXPERIMENTS.md has %d lines, the rendering of FIGURES.json %d", len(have), len(should))
	}
	figure := "(before the first figure)"
	for i := 0; i < len(have) && i < len(should); i++ {
		if strings.HasPrefix(should[i], "### ") {
			figure = should[i]
		}
		if have[i] != should[i] {
			t.Errorf("EXPERIMENTS.md:%d under %q\n  document: %s\n  record:   %s", i+1, figure, have[i], should[i])
		}
	}
}

// TestDoc: rendering into a document replaces exactly the block, names
// every figure, and a document without the block is an error.
func TestDoc(t *testing.T) {
	rep := report(t)
	md := []byte("intro\n" + docBegin + "stale\n" + docEnd + "\noutro\n")
	out, err := rep.Doc(md)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("intro\n"+docBegin)) || !bytes.HasSuffix(out, []byte(docEnd+"\noutro\n")) || bytes.Contains(out, []byte("stale")) {
		t.Errorf("block not replaced in place:\n%s", out)
	}
	for _, id := range IDs() {
		if !bytes.Contains(out, []byte("\n### "+id+" — ")) {
			t.Errorf("rendering has no heading for %s", id)
		}
	}
	for _, p := range paperTable {
		if !bytes.Contains(out, []byte("- paper: "+p.Row+" "+p.Metric+" = ")) {
			t.Errorf("rendering has no paper line for %s[%s].%s", p.Figure, p.Row, p.Metric)
		}
	}
	if again, err := rep.Doc(out); err != nil || !bytes.Equal(again, out) {
		t.Errorf("rendering twice changed the document (err %v)", err)
	}
	if _, err := rep.Doc([]byte("no block here")); err == nil {
		t.Error("a document without the block must be an error")
	}
}
