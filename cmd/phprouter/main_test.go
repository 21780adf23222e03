package main

import (
	"encoding/json"
	"flag"
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

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestProxyPageIdentity: the router hashes the page a request names,
// not how the request spelled it — every spelling of a page reaches
// the backend that owns serve.PageKey(page), the key that backend
// caches under — and a ?page= the backends would reject is a 400 at
// the router, never its own ring key.
func TestProxyPageIdentity(t *testing.T) {
	r := serve.NewRouter(serve.RouterConfig{})
	ring := cache.NewRing(0) // the router's ring: same replicas, same members
	for _, id := range []string{"0", "1", "2"} {
		ring.Add(id)
		id := id
		be := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, id+" "+r.URL.RawQuery)
		}))
		defer be.Close()
		r.AddBackend(id, strings.TrimPrefix(be.URL, "http://"))
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	get := func(query string) (int, string) {
		resp, err := http.Get(front.URL + "/" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for page, spellings := range map[int][]string{
		7:   {"?page=7", "?page=07", "?page=%2B7", "?x=1&page=7"},
		300: {"?page=300", "?page=0300"},
	} {
		owner, _ := ring.Owner(serve.PageKey(page))
		for _, q := range spellings {
			status, body := get(q)
			if status != http.StatusOK || !strings.HasPrefix(body, owner+" ") {
				t.Errorf("%s: status %d answered by %q, want backend %s (owner of %s)", q, status, body, owner, serve.PageKey(page))
			}
			if !strings.HasSuffix(body, strings.TrimPrefix(q, "?")) {
				t.Errorf("%s: backend saw query %q, want it forwarded as sent", q, body)
			}
		}
	}
	for _, q := range []string{"?page=-3", "?page=abc", "?page=1e3", "?page=99999999999999999999", "?page=7&page=8", "?page=%zz"} {
		if status, body := get(q); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%q), want 400", q, status, body)
		}
	}
	// No page and no sampler: the request path is the key.
	owner, _ := ring.Owner("/")
	if status, body := get(""); status != http.StatusOK || !strings.HasPrefix(body, owner+" ") {
		t.Errorf("no page: status %d answered by %q, want backend %s", status, body, owner)
	}
}

// fakeBackend answers renders and /healthz, the only paths a router
// has reason to send a backend outside a stitched trace; any other
// request fails the test.
func fakeBackend(t *testing.T, id string) string {
	t.Helper()
	be := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" && r.URL.Path != "/healthz" {
			t.Errorf("backend %s was sent %s %s", id, r.Method, r.URL)
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, id)
	}))
	t.Cleanup(be.Close)
	return strings.TrimPrefix(be.URL, "http://")
}

// TestOperatorSurface drives every read-only operator endpoint of a
// router in front of two backends: /metrics is valid text exposition
// (one # TYPE line per family, however many backends share it) and is,
// family for family — name, type, labels, HELP — the signals table of
// docs/OPERATIONS.md; /backends lists both backends; /eventz reads ?n=
// the way /tracez and /profilez do; a path the router does not serve is
// the proxy's 404, POST /restart too (the router fronts backends and
// does not run them). None of them sends a backend anything: the router
// reports what it counted itself.
func TestOperatorSurface(t *testing.T) {
	events := obs.NewEventRing(64)
	treeRing := obs.NewTreeRing(4)
	r := serve.NewRouter(serve.RouterConfig{Events: events, TreeRing: treeRing})
	r.AddBackend("0", fakeBackend(t, "0"))
	r.AddBackend("1", fakeBackend(t, "1"))
	for i := 0; i < 2; i++ { // four events per round trip, every kind on /metrics; ten retained in all
		r.SetBackendUp("1", false)
		r.SetBackendUp("1", true)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	for page := 0; page < 8; page++ {
		resp, err := http.Get(fmt.Sprintf("%s/?page=%d", front.URL, page))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	type backendRow struct {
		ID string `json:"id"`
		Up bool   `json:"up"`
	}
	bothListed := func(t *testing.T, ids ...string) {
		t.Helper()
		if len(ids) != 2 || ids[0] != "0" || ids[1] != "1" {
			t.Errorf("backends listed = %q, want 0 and 1", ids)
		}
	}
	eventz := func(want int) func(*testing.T, []byte) {
		return func(t *testing.T, body []byte) {
			var ez struct {
				Total  int64       `json:"total"`
				Events []obs.Event `json:"events"`
			}
			if err := json.Unmarshal(body, &ez); err != nil {
				t.Fatal(err)
			}
			if ez.Total != 10 || len(ez.Events) != want {
				t.Errorf("total %d with %d events returned, want 10 and %d", ez.Total, len(ez.Events), want)
			}
		}
	}
	for _, tc := range []struct {
		method string // empty is GET
		path   string
		status int
		check  func(t *testing.T, body []byte)
	}{
		{"", "/metrics", http.StatusOK, func(t *testing.T, body []byte) {
			fams, err := obs.ParsePromText(strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			types := map[string]int{}
			for _, line := range strings.Split(string(body), "\n") {
				if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
					types[strings.Fields(name)[0]]++
				}
			}
			for name, n := range types {
				if n != 1 {
					t.Errorf("family %s has %d # TYPE lines, the format allows one", name, n)
				}
			}
			checkSignalsDoc(t, fams)
			if got := obs.FindFamily(fams, "phprouter_requests_total").Sum(); got != 8 {
				t.Errorf("phprouter_requests_total sums to %g over both backends, want 8", got)
			}
		}},
		{"", "/backends", http.StatusOK, func(t *testing.T, body []byte) {
			var bz struct {
				Rows []backendRow `json:"backends"`
			}
			if err := json.Unmarshal(body, &bz); err != nil {
				t.Fatal(err)
			}
			if len(bz.Rows) != 2 || !bz.Rows[0].Up || !bz.Rows[1].Up {
				t.Fatalf("backend rows = %+v, want two, both up", bz.Rows)
			}
			bothListed(t, bz.Rows[0].ID, bz.Rows[1].ID)
		}},
		{"", "/eventz", http.StatusOK, eventz(10)},
		{"", "/eventz?n=2", http.StatusOK, eventz(2)},
		{"", "/eventz?n=07", http.StatusOK, eventz(7)},
		{"", "/eventz?n=abc", http.StatusOK, eventz(10)},
		{"", "/clusterz", http.StatusNotFound, func(*testing.T, []byte) {}},
		{http.MethodPost, "/restart", http.StatusNotFound, func(*testing.T, []byte) {}},
	} {
		t.Run(strings.TrimSpace(tc.method+" "+tc.path), func(t *testing.T) {
			req, err := http.NewRequest(tc.method, front.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			tc.check(t, body)
		})
	}
}

// checkSignalsDoc holds the signals:phprouter block of docs/OPERATIONS.md
// to the families a router exposes: name, type, labels and HELP.
func checkSignalsDoc(t *testing.T, fams []*obs.MetricFamily) {
	t.Helper()
	var b strings.Builder
	b.WriteString("| Series | Type | Labels | Meaning |\n|---|---|---|---|\n")
	for _, f := range fams {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, labelCell(f), f.Help)
	}
	checkDocBlock(t, "signals:phprouter", b.String())
}

// TestFlagsDoc holds the flags:phprouter table of docs/OPERATIONS.md to
// the flags phprouter registers: name, default and usage string, the
// flag's one description.
func TestFlagsDoc(t *testing.T) {
	fs := flag.NewFlagSet("phprouter", flag.ContinueOnError)
	defineFlags(fs)
	var b strings.Builder
	b.WriteString("| Flag | Default | Meaning |\n|---|---|---|\n")
	fs.VisitAll(func(f *flag.Flag) {
		def := "empty"
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, def, strings.ReplaceAll(f.Usage, "|", `\|`))
	})
	checkDocBlock(t, "flags:phprouter", b.String())
}

// checkDocBlock compares want with the text between the
// <!-- MARKER:begin --> and <!-- MARKER:end --> lines of
// docs/OPERATIONS.md; on a mismatch it prints the block to paste there.
func checkDocBlock(t *testing.T, marker, want string) {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- "+marker+":begin -->\n", "<!-- "+marker+":end -->"
	_, rest, ok := strings.Cut(string(raw), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("docs/OPERATIONS.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	if got != want {
		t.Errorf("docs/OPERATIONS.md: the %s block is not what the code declares; it should read:\n%s%s%s", marker, begin, want, end)
	}
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

// TestSignalTags: every prom tag under serve.RouterMetrics is well formed —
// name, kind, options — a family's fields are adjacent (one header), and
// the first field of a family carries its help.
func TestSignalTags(t *testing.T) {
	name := regexp.MustCompile(`^[a-z0-9_]+$`)
	seen, last, families := map[string]bool{}, "", 0
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		for i := 0; typ.Kind() == reflect.Struct && i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, tagged := f.Tag.Lookup("prom")
			if !tagged {
				walk(f.Type)
				continue
			}
			where := typ.Name() + "." + f.Name + " `" + string(f.Tag) + "`"
			opts := strings.Split(tag, ",")
			if len(opts) < 2 || !name.MatchString(opts[0]) {
				t.Errorf("%s: want prom:\"name,kind[,options]\" with a [a-z0-9_]+ name", where)
				continue
			}
			switch opts[1] {
			case "label":
				continue
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("%s: kind %q, want counter, gauge, histogram or label", where, opts[1])
			}
			for _, o := range opts[2:] {
				if k, v, ok := strings.Cut(o, "="); o != "base" && (!ok || !name.MatchString(k) || v == "") {
					t.Errorf("%s: option %q, want base, by=label or label=value", where, o)
				}
			}
			if opts[0] != last {
				families++
				if seen[opts[0]] {
					t.Errorf("%s: family %s is split across non-adjacent fields (it would get two headers)", where, opts[0])
				}
				if f.Tag.Get("help") == "" {
					t.Errorf("%s: the first field of family %s carries its help", where, opts[0])
				}
			}
			seen[opts[0]], last = true, opts[0]
		}
	}
	walk(reflect.TypeOf(serve.RouterMetrics{}))
	if families != 17 {
		t.Errorf("walk found %d families under serve.RouterMetrics, want the 17 phprouter_* series", families)
	}
}
