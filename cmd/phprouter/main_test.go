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
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
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

// fakeBackend answers what the router asks of a phpserve: renders, the
// /metrics families the fleet scrape sums and /profilez?format=json.
func fakeBackend(t *testing.T, id string, requests int64) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, id) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		lat := obs.NewHistogram(obs.DefLatencyBuckets())
		lat.Observe(0.002)
		// The tagged types phpserve renders, so the names are the server's.
		obs.NewEncoder(w).Struct("phpserve_", nil, struct {
			obs.Snapshot
			Cache cache.Stats
		}{obs.Snapshot{Requests: requests, Latency: lat.Snapshot()}, cache.Stats{Hits: requests / 2, Misses: requests / 2}})
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, r *http.Request) {
		p := profile.Merge(profile.Profile{Entries: []profile.Entry{{Name: "render_" + id, Category: sim.CatString, Cycles: 100}}})
		obs.WriteJSON(w, http.StatusOK, profile.NewDoc("wordpress", "accelerated", p, profile.WindowInfo{}, nil, 0))
	})
	be := httptest.NewServer(mux)
	t.Cleanup(be.Close)
	return strings.TrimPrefix(be.URL, "http://")
}

// TestOperatorSurface drives every read-only operator endpoint of a
// router in front of two backends: /metrics is valid text exposition
// (one # TYPE line per family, however many backends share it) and is,
// family for family — name, type, labels, HELP — the signals table of
// docs/OPERATIONS.md; /clusterz and /backends list both backends;
// /eventz reads ?n= the way /tracez and /profilez do.
func TestOperatorSurface(t *testing.T) {
	events := obs.NewEventRing(64)
	treeRing := obs.NewTreeRing(4)
	r := serve.NewRouter(serve.RouterConfig{Events: events, TreeRing: treeRing, ScrapeTimeout: 5 * time.Second})
	r.AddBackend("0", fakeBackend(t, "0", 30))
	r.AddBackend("1", fakeBackend(t, "1", 10))
	for i := 0; i < 2; i++ { // four events per round trip
		r.SetBackendUp("1", false)
		r.SetBackendUp("1", true)
	}
	events.Add(time.Now(), obs.EventRestartPhase, "", "complete") // every kind on /metrics; eleven retained in all
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
			if ez.Total != 11 || len(ez.Events) != want {
				t.Errorf("total %d with %d events returned, want 11 and %d", ez.Total, len(ez.Events), want)
			}
		}
	}
	for _, tc := range []struct {
		path  string
		check func(t *testing.T, body []byte)
	}{
		{"/metrics", func(t *testing.T, body []byte) {
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
			if got := obs.FindFamily(fams, "phprouter_cluster_requests").Sum(); got != 40 {
				t.Errorf("phprouter_cluster_requests = %g, want the fleet's 30 + 10", got)
			}
		}},
		{"/clusterz", func(t *testing.T, body []byte) {
			var cz serve.ClusterView
			if err := json.Unmarshal(body, &cz); err != nil {
				t.Fatal(err)
			}
			if cz.BackendsUp != 2 || cz.BackendsScraped != 2 || cz.Requests != 40 || cz.CacheHitRatio != 0.5 || cz.Profile.Functions != 2 {
				t.Errorf("merged fleet view wrong: %+v", cz)
			}
			if len(cz.Backends) == 2 {
				bothListed(t, cz.Backends[0].ID, cz.Backends[1].ID)
				if cz.Backends[0].LoadShare != 0.75 {
					t.Errorf("backend 0 load share = %g, want 30 of 40", cz.Backends[0].LoadShare)
				}
			} else {
				t.Errorf("%d backend rows, want 2", len(cz.Backends))
			}
		}},
		{"/backends", func(t *testing.T, body []byte) {
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
		{"/eventz", eventz(11)},
		{"/eventz?n=2", eventz(2)},
		{"/eventz?n=07", eventz(7)},
		{"/eventz?n=abc", eventz(11)},
	} {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Get(front.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			tc.check(t, body)
		})
	}
}

// checkSignalsDoc holds the signals:phprouter block of docs/OPERATIONS.md
// to the exposition: one row per family, in order, everything in it
// parsed from what the router wrote. On a mismatch the expected block is
// printed; paste it between the markers.
func checkSignalsDoc(t *testing.T, fams []*obs.MetricFamily) {
	t.Helper()
	var b strings.Builder
	b.WriteString("| Series | Type | Labels | Meaning |\n|---|---|---|---|\n")
	for _, f := range fams {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, labelCell(f), f.Help)
	}
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- signals:phprouter:begin -->\n", "<!-- signals:phprouter:end -->"
	_, rest, ok := strings.Cut(string(raw), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("docs/OPERATIONS.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	if got != b.String() {
		t.Errorf("docs/OPERATIONS.md: the signals:phprouter block is not what the router exposes; it should read:\n%s%s%s", begin, b.String(), end)
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
	if families != 25 {
		t.Errorf("walk found %d families under serve.RouterMetrics, want the 25 phprouter_* series", families)
	}
}
