package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestProxyPageIdentity: the router hashes the page a request names,
// not how the request spelled it — every spelling of a page reaches
// the backend that owns serve.PageKey(page), the key that backend
// caches under — and a ?page= the backends would reject is a 400 at
// the router, never its own ring key.
func TestProxyPageIdentity(t *testing.T) {
	rt := &router{r: serve.NewRouter(serve.RouterConfig{Client: &http.Client{Timeout: 5 * time.Second}})}
	for _, id := range []string{"0", "1", "2"} {
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
		owner := rt.r.Owners(serve.PageKey(page), 1)[0]
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
	owner := rt.r.Owners("/", 1)[0]
	if status, body := get(""); status != http.StatusOK || !strings.HasPrefix(body, owner+" ") {
		t.Errorf("no page: status %d answered by %q, want backend %s", status, body, owner)
	}
}
