package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/php"
)

// scrape GETs path from a test server and returns the 200 body.
func scrape(t *testing.T, url, path string) string {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// field is one field of the stats type: its /stats key path ("" when
// off the document) and the family it feeds ("" when JSON only).
type field struct {
	f           reflect.StructField
	key, family string
}

// signalsOf lists the fields under t that obs.Encoder.Struct renders or
// encoding/json writes, descending where they descend; key is the JSON
// path of t itself, on says whether t is on the document at all.
func signalsOf(t reflect.Type, key string, on bool, out []field) []field {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	for i := 0; t.Kind() == reflect.Struct && i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		path, fon := key, on && name != "-" && f.IsExported()
		if fon && !(f.Anonymous && name == "") {
			if name == "" {
				name = f.Name
			}
			path = strings.TrimPrefix(key+"."+name, ".")
		}
		prom, tagged := f.Tag.Lookup("prom")
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		switch opts := strings.Split(prom, ","); {
		case !tagged && ft.Kind() == reflect.Struct && ft != reflect.TypeOf(obs.VecEntry{}) && (f.IsExported() || f.Anonymous):
			out = signalsOf(ft, path, fon, out)
		case tagged && opts[len(opts)-1] != "label":
			if !fon {
				path = ""
			}
			out = append(out, field{f, path, "phpserve_" + opts[0]})
		case fon:
			out = append(out, field{f, path, ""})
		}
	}
	return out
}

// TestSignalTags: every prom tag under the stats type is well formed —
// name, kind, options — a family's fields are adjacent (one header), and
// the first field of a family and every JSON-only key carry the help
// text the documentation is rendered from.
func TestSignalTags(t *testing.T) {
	sigs := signalsOf(reflect.TypeOf(stats{}), "", true, nil)
	name := regexp.MustCompile(`^[a-z0-9_]+$`)
	seen, last := map[string]bool{}, ""
	for _, s := range sigs {
		where := s.f.Name + " `" + string(s.f.Tag) + "`"
		if s.family == "" {
			if s.f.Tag.Get("help") == "" {
				t.Errorf("%s: a /stats key with no series needs help text", where)
			}
			continue
		}
		opts := strings.Split(s.f.Tag.Get("prom"), ",")
		if len(opts) < 2 || !name.MatchString(opts[0]) {
			t.Errorf("%s: want prom:\"name,kind[,options]\" with a [a-z0-9_]+ name", where)
			continue
		}
		switch opts[1] {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("%s: kind %q, want counter, gauge or histogram", where, opts[1])
		}
		for _, o := range opts[2:] {
			if k, v, ok := strings.Cut(o, "="); o != "base" && (!ok || !name.MatchString(k) || v == "") {
				t.Errorf("%s: option %q, want base, by=label or label=value", where, o)
			}
		}
		if s.family != last {
			if seen[s.family] {
				t.Errorf("%s: family %s is split across non-adjacent fields (it would get two headers)", where, s.family)
			}
			if s.f.Tag.Get("help") == "" {
				t.Errorf("%s: the first field of family %s carries its help", where, s.family)
			}
		}
		seen[s.family], last = true, s.family
	}
}

// everyPlaneServer is a server with every optional plane on — scripted
// workload in the auto tier, response cache, span-tree ring, operation
// trace — so every signal the binary can expose is on its surfaces.
func everyPlaneServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := tieredTestServer(t, php.TierAuto)
	s.col.SetTreeRing(obs.NewTreeRing(4))
	s.cache = cache.New(cache.Config{Capacity: 8, Shards: 1})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	for page := 0; page < 6; page++ {
		scrape(t, ts.URL, fmt.Sprintf("/?page=%d", page%4))
	}
	return ts
}

// TestSignalsDoc holds the signals table in docs/OPERATIONS.md to what a
// server with every plane on exposes: one row per family on /metrics —
// type, labels and HELP as parsed from the exposition, the /stats keys
// of its fields from the tags — then one per /stats key with no series.
// The tags and the two surfaces must name exactly the same things. On a
// mismatch the expected block is printed; paste it between the markers.
func TestSignalsDoc(t *testing.T) {
	ts := everyPlaneServer(t)
	fams, err := obs.ParsePromText(strings.NewReader(scrape(t, ts.URL, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/stats")), &doc); err != nil {
		t.Fatal(err)
	}

	sigs := signalsOf(reflect.TypeOf(stats{}), "", true, nil)
	keys := map[string][]string{} // family -> /stats keys of its fields
	// declared holds /stats keys and families alike; the summary is the
	// one hand-written family.
	declared := map[string]bool{"phpserve_request_latency_summary_seconds": true}
	for _, s := range sigs {
		if s.family != "" && obs.FindFamily(fams, s.family) == nil {
			t.Errorf("family %s is tagged on %s and absent from /metrics", s.family, s.f.Name)
		}
		declared[s.family] = true
		if s.key == "" {
			continue
		}
		keys[s.family] = append(keys[s.family], "`"+s.key+"`")
		declared[s.key] = true
		at := any(doc)
		for _, k := range strings.Split(s.key, ".") {
			at = at.(map[string]any)[k]
		}
		if at == nil {
			t.Errorf("/stats has no %s (field %s)", s.key, s.f.Name)
		}
	}
	var b strings.Builder
	b.WriteString("| Series | Type | Labels | `/stats` key | Meaning |\n|---|---|---|---|---|\n")
	for _, f := range fams {
		if !declared[f.Name] {
			t.Errorf("family %s is on /metrics and on no tagged field", f.Name)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", f.Name, f.Type, labelCell(f), strings.Join(keys[f.Name], ", "), f.Help)
	}
	for _, s := range sigs {
		if s.family == "" {
			fmt.Fprintf(&b, "| — | | | `%s` | %s |\n", s.key, s.f.Tag.Get("help"))
		}
	}
	for _, path := range leafPaths(doc, "") { // a vector's entries sit under its field's key
		for path != "" && !declared[path] {
			path = path[:max(strings.LastIndex(path, "."), 0)]
		}
		if path == "" {
			t.Errorf("/stats carries a key no tagged field declares (document: %v)", doc)
		}
	}
	checkDocBlock(t, "phpserve", b.String())
}

// labelCell renders a family's labels in exposition order. A label whose
// values are the signal's own (not the process's identity, a backend's
// or a bucket bound) is listed with them.
func labelCell(f *obs.MetricFamily) string {
	var names []string
	values := map[string][]string{}
	for _, smp := range f.Samples {
		for _, l := range smp.Labels {
			if values[l.Name] == nil {
				names = append(names, l.Name)
			}
			if v := "`" + l.Value + "`"; !slices.Contains(values[l.Name], v) {
				values[l.Name] = append(values[l.Name], v)
			}
		}
	}
	for i, n := range names {
		names[i] = "`" + n + "`"
		if !strings.Contains(" le app config tier backend ", " "+n+" ") {
			names[i] += ": " + strings.Join(values[n], ", ")
		}
	}
	return strings.Join(names, "; ")
}

// leafPaths lists the dotted path of every non-object value in doc.
func leafPaths(doc map[string]any, prefix string) []string {
	var out []string
	for k, v := range doc {
		if sub, ok := v.(map[string]any); ok {
			out = append(out, leafPaths(sub, prefix+k+".")...)
		} else {
			out = append(out, prefix+k)
		}
	}
	return out
}

// checkDocBlock compares want with the text between the
// <!-- signals:NAME:begin --> and :end markers of docs/OPERATIONS.md.
func checkDocBlock(t *testing.T, name, want string) {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- signals:"+name+":begin -->\n", "<!-- signals:"+name+":end -->"
	_, rest, ok := strings.Cut(string(raw), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("docs/OPERATIONS.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	if got != want {
		t.Errorf("docs/OPERATIONS.md: the signals:%s block is not what the server exposes; it should read:\n%s%s%s", name, begin, want, end)
	}
}

// TestSummaryCountersMonotonic: the latency summary's _sum and _count
// are counters — they must not go backwards when the quantile reservoir
// halves itself at 65,536 entries, and _count is the request count.
func TestSummaryCountersMonotonic(t *testing.T) {
	s := testServer(t, 1, 0, 0, nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	read := func() (count, sum, requests float64) {
		fams, err := obs.ParsePromText(strings.NewReader(scrape(t, ts.URL, "/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range obs.FindFamily(fams, "phpserve_request_latency_summary_seconds").Samples {
			switch smp.Name {
			case "phpserve_request_latency_summary_seconds_count":
				count = smp.Value
			case "phpserve_request_latency_summary_seconds_sum":
				sum = smp.Value
			}
		}
		return count, sum, obs.FindFamily(fams, "phpserve_requests_total").Sum()
	}
	observe := func(n int) {
		for i := 0; i < n; i++ {
			s.col.Observe(obs.Span{Wall: time.Millisecond}, 0)
		}
	}
	observe(1<<16 - 1)
	count0, sum0, requests0 := read()
	observe(10) // crosses the reservoir's trim
	count1, sum1, requests1 := read()
	if count0 != requests0 || count1 != requests1 || requests1 != 1<<16+9 {
		t.Errorf("_count %g then %g against phpserve_requests_total %g then %g: want them equal, ending at %d", count0, count1, requests0, requests1, 1<<16+9)
	}
	if count1 < count0 || sum1 < sum0 {
		t.Errorf("summary went backwards across the reservoir trim: _count %g -> %g, _sum %g -> %g", count0, count1, sum0, sum1)
	}
}
