package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

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
	rt := &router{r: serve.NewRouter(serve.RouterConfig{Client: &http.Client{Timeout: 5 * time.Second}})}
	ring := cache.NewRing(0) // the router's ring: same replicas, same members
	for _, id := range []string{"0", "1", "2"} {
		ring.Add(id)
		id := id
		be := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, id+" "+r.URL.RawQuery)
		}))
		defer be.Close()
		rt.r.AddBackend(id, strings.TrimPrefix(be.URL, "http://"))
	}
	front := httptest.NewServer(rt.handler())
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
func fakeBackend(t *testing.T, id string, requests float64) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, id) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		lat := obs.NewHistogram(obs.DefLatencyBuckets())
		lat.Observe(0.002)
		e := obs.NewEncoder(w)
		e.Counter("phpserve_requests_total", "Requests served.", obs.Sample{Value: requests})
		e.Counter("phpserve_cache_hits_total", "Cache hits.", obs.Sample{Value: requests / 2})
		e.Counter("phpserve_cache_misses_total", "Cache misses.", obs.Sample{Value: requests / 2})
		e.Histogram("phpserve_request_latency_seconds", "Render latency.", nil, lat.Snapshot())
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"top":[{"name":"render_`+id+`","category":"string","cycles":100}]}`)
	})
	be := httptest.NewServer(mux)
	t.Cleanup(be.Close)
	return strings.TrimPrefix(be.URL, "http://")
}

// TestOperatorSurface drives every read-only operator endpoint of a
// router in front of two backends: /metrics is valid text exposition
// (one # TYPE line per family, however many backends share it) carrying
// every phprouter_* series the source names — the list docs_check.sh
// holds OPERATIONS.md to; /clusterz and /backends list both backends;
// /eventz reads ?n= the way /tracez and /profilez do.
func TestOperatorSurface(t *testing.T) {
	events := obs.NewEventRing(64)
	treeRing := obs.NewTreeRing(4)
	rt := &router{
		r:        serve.NewRouter(serve.RouterConfig{Events: events, TreeRing: treeRing}),
		start:    time.Now(),
		events:   events,
		treeRing: treeRing,
		scrapeTO: 5 * time.Second,
	}
	rt.r.AddBackend("0", fakeBackend(t, "0", 30))
	rt.r.AddBackend("1", fakeBackend(t, "1", 10))
	for i := 0; i < 2; i++ { // four events per round trip, ten retained in all
		rt.r.SetBackendUp("1", false)
		rt.r.SetBackendUp("1", true)
	}
	front := httptest.NewServer(rt.handler())
	defer front.Close()
	for page := 0; page < 8; page++ {
		resp, err := http.Get(fmt.Sprintf("%s/?page=%d", front.URL, page))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var sources []byte
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, b...)
		}
	}
	series := regexp.MustCompile(`"(phprouter_[a-z0-9_]*)"`).FindAllSubmatch(sources, -1)
	if len(series) < 25 {
		t.Fatalf("found %d phprouter_* names in the source, want the 25 OPERATIONS.md documents", len(series))
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
			var ez eventzResponse
			if err := json.Unmarshal(body, &ez); err != nil {
				t.Fatal(err)
			}
			if ez.Total != 10 || len(ez.Events) != want {
				t.Errorf("total %d with %d events returned, want 10 and %d", ez.Total, len(ez.Events), want)
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
			for _, m := range series {
				if obs.FindFamily(fams, string(m[1])) == nil {
					t.Errorf("series %s is named in the source and absent from /metrics", m[1])
				}
			}
			if got := obs.FindFamily(fams, "phprouter_requests_total").Sum(); got != 8 {
				t.Errorf("phprouter_requests_total sums to %g over both backends, want 8", got)
			}
			if got := obs.FindFamily(fams, "phprouter_cluster_requests").Sum(); got != 40 {
				t.Errorf("phprouter_cluster_requests = %g, want the fleet's 30 + 10", got)
			}
		}},
		{"/clusterz", func(t *testing.T, body []byte) {
			var cz clusterzResponse
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
		{"/eventz", eventz(10)},
		{"/eventz?n=2", eventz(2)},
		{"/eventz?n=07", eventz(7)},
		{"/eventz?n=abc", eventz(10)},
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
