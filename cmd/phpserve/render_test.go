package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// renderFixture is one side of the single-path table: a one-worker pool
// (so the worker's request sequence is the server's), optionally with
// the -cache stack, warmed the way main() warms it.
type renderFixture struct {
	pool  *workload.Pool
	cache *cache.Cache
	keys  *workload.ZipfKeys
}

const (
	renderWarmup    = 3
	renderCtxSwitch = 2
	renderPages     = 16
)

func newRenderFixture(t *testing.T, cached bool) renderFixture {
	t.Helper()
	cfg, err := vm.ConfigByName("accelerated")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceCapacity = -1
	var f renderFixture
	if cached {
		f.pool, err = workload.NewPoolSharedSeed(1, cfg, "wordpress", 1)
		f.cache = cache.New(cache.Config{Capacity: 64, Shards: 4})
	} else {
		f.pool, err = workload.NewPool(1, cfg, "wordpress", 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		if f.keys, err = workload.NewZipfKeys(1, 1.0, renderPages); err != nil {
			t.Fatal(err)
		}
	}
	f.pool.Run(workload.LoadGenerator{Warmup: renderWarmup, ContextSwitchEvery: renderCtxSwitch}, 0)
	return f
}

// replay is the request path written out by hand on the fixture's own
// worker — render, cadence, copy — with no Scheduler in between: what
// the server must have done for the same request, and the in-process
// source of the expected bytes and simulated cycles.
func (f renderFixture) replay(t *testing.T, page int) ([]byte, cache.Outcome) {
	t.Helper()
	render := func() ([]byte, error) {
		w := f.pool.Acquire()
		defer f.pool.Release(w)
		body, _, err := w.ServePageSpanCtx(context.Background(), page, false)
		w.ContextSwitchEvery(renderCtxSwitch)
		return append([]byte(nil), body...), err
	}
	if f.cache == nil {
		body, err := render()
		if err != nil {
			t.Fatal(err)
		}
		return body, cache.Bypass
	}
	if page < 0 {
		page = f.keys.Next()
	}
	body, outcome, err := f.cache.GetOrFill(context.Background(), serve.PageKey(page), render)
	if err != nil {
		t.Fatal(err)
	}
	return body, outcome
}

func (f renderFixture) simCycles() float64 {
	mt := f.pool.MergedMeter()
	if f.cache != nil {
		f.cache.MergeMeter(mt)
	}
	return mt.CategoryCyclesVec().Total()
}

// TestRenderPath drives the one render handler over {cache on, off} ×
// {sampled, unsampled} × {?page=n, no page}: every body equals the
// hand-written replay of the same request on an identical fixture, the
// response headers are what each mode promises, a sampled request's
// tree is retained under its request ID with a root spanning exactly
// the observed latency, and /stats reports the replay's simulated
// cycles to the bit.
func TestRenderPath(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for _, sampled := range []bool{false, true} {
			for _, paged := range []bool{false, true} {
				name := fmt.Sprintf("cache=%v/sampled=%v/page=%v", cached, sampled, paged)
				t.Run(name, func(t *testing.T) { testRenderPath(t, cached, sampled, paged) })
			}
		}
	}
}

func testRenderPath(t *testing.T, cached, sampled, paged bool) {
	fix, ref := newRenderFixture(t, cached), newRenderFixture(t, cached)
	rate := 0.0
	if sampled {
		rate = 1
	}
	col := obs.NewCollector(rate, nil, nil)
	col.SetTreeRing(obs.NewTreeRing(16))
	sched := serve.NewScheduler(fix.pool, serve.Config{QueueDepth: 4, CtxSwitchEvery: renderCtxSwitch})
	srv := newServer(sched, col, "wordpress", "accelerated")
	srv.backendID = 2
	srv.cache, srv.pageKeys = fix.cache, fix.keys
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Page 5 twice (the second is the cached modes' hit), then its
	// other spelling, then a different page; or five of whatever the
	// server serves next.
	queries := []string{"", "", "", "", ""}
	pages := []int{-1, -1, -1, -1, -1}
	if paged {
		queries = []string{"?page=5", "?page=5", "?page=05", "?page=%2B5", "?page=11"}
		pages = []int{5, 5, 5, 5, 11}
	}
	for i, q := range queries {
		rid := fmt.Sprintf("render-%d", i)
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/"+q, nil)
		req.Header.Set(obs.HeaderRequestID, rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%q): status %d: %s", i, q, resp.StatusCode, body)
		}

		want, outcome := ref.replay(t, pages[i])
		if !bytes.Equal(body, want) {
			t.Errorf("request %d (%q): body differs from the in-process replay (%d vs %d bytes)", i, q, len(body), len(want))
		}
		wantCache := ""
		if cached {
			wantCache = map[cache.Outcome]string{cache.Hit: "HIT", cache.Miss: "MISS"}[outcome]
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Errorf("request %d (%q): X-Cache = %q, want %q", i, q, got, wantCache)
		}
		if got := resp.Header.Get(obs.HeaderRequestID); got != rid {
			t.Errorf("request %d: X-Request-Id = %q, want the inbound %q", i, got, rid)
		}
		if got := resp.Header.Get("X-Backend"); got != "2" {
			t.Errorf("request %d: X-Backend = %q, want 2", i, got)
		}
		wantSampled := ""
		if sampled {
			wantSampled = "1"
		}
		if got := resp.Header.Get(obs.HeaderTraceSampled); got != wantSampled {
			t.Errorf("request %d: X-Trace-Sampled = %q, want %q", i, got, wantSampled)
		}

		trees := col.TreeRing().Last(1)
		if !sampled {
			if len(trees) != 0 {
				t.Fatalf("request %d: unsampled request retained a tree", i)
			}
			continue
		}
		lats := col.Snapshot().Latencies
		if len(trees) != 1 || trees[0].ID != rid {
			t.Fatalf("request %d: newest retained tree is not this request's: %+v", i, trees)
		}
		if wall := lats[len(lats)-1]; trees[0].Root.Dur != wall {
			t.Errorf("request %d: tree root Dur %v != observed Wall %v", i, trees[0].Root.Dur, wall)
		}
		wantLeaf := "render"
		if outcome == cache.Hit {
			wantLeaf = "cache_hit"
		}
		found := false
		for _, c := range trees[0].Root.Children {
			found = found || c.Name == wantLeaf
		}
		if !found {
			t.Errorf("request %d: tree has no %q span under its root", i, wantLeaf)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != int64(len(queries)) {
		t.Errorf("/stats requests = %d, want %d", st.Requests, len(queries))
	}
	if want := ref.simCycles(); st.SimCycles != want {
		t.Errorf("/stats sim_cycles = %v, in-process replay = %v", st.SimCycles, want)
	}
}

// TestRenderBadPage: a ?page= that is not a non-negative integer, is
// repeated, or sits in an unparseable query is a 400 with or without
// -cache — never a silently different page.
func TestRenderBadPage(t *testing.T) {
	for _, cached := range []bool{false, true} {
		fix := newRenderFixture(t, cached)
		srv := newServer(serve.NewScheduler(fix.pool, serve.Config{QueueDepth: 4}), obs.NewCollector(0, nil, nil), "wordpress", "accelerated")
		srv.cache, srv.pageKeys = fix.cache, fix.keys
		ts := httptest.NewServer(srv.handler())
		for _, q := range []string{"?page=-3", "?page=abc", "?page=1e3", "?page=99999999999999999999", "?page=1&page=2", "?page=%zz"} {
			resp, err := http.Get(ts.URL + "/" + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("cache=%v %s: status %d, want 400", cached, q, resp.StatusCode)
			}
		}
		if n := srv.col.Snapshot().Requests; n != 0 {
			t.Errorf("cache=%v: %d malformed requests reached a worker", cached, n)
		}
		ts.Close()
	}
}
