package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/php"
	"repro/internal/serve"
)

// tieredConfig is a scripted-workload server with the tier plane on,
// started with the given -tier spelling.
func tieredConfig(tier string) serve.ServerConfig {
	return serve.ServerConfig{
		App: "phpscript-blog", Core: "accelerated", Workers: 2, Seed: 1,
		Warmup: 64, QueueDepth: 64, SampleRate: 1, Tier: tier, Backend: -1,
	}
}

// TestTierzEndpoint drives a server started with -tier auto and checks
// the tier report, which /tierz used to serve and /stats' tier object
// now carries, gives the bytecode engine's request and inline-cache
// counts.
func TestTierzEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, tieredConfig("auto")).Handler())
	defer ts.Close()
	drive(t, ts.URL, 8)

	var st struct {
		Tier *php.TierSnapshot `json:"tier"`
	}
	if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if tz := st.Tier; tz == nil || !tz.Enabled || tz.Mode != "bytecode" || tz.Requests != 136 {
		t.Fatalf("/stats tier should report 136 bytecode requests: %+v", tz)
	}
	if tz := st.Tier; tz.ICSites == 0 || tz.ICHits == 0 {
		t.Errorf("bytecode should exercise inline caches: %+v", tz)
	}
}

// TestTierLabelStableFromStart starts a -tier bytecode server with no
// warm-up, so no worker has built its engine when it is first scraped:
// /stats and the /metrics tier label must already name the configured
// engine, and keep naming it after the first request.
func TestTierLabelStableFromStart(t *testing.T) {
	cfg := tieredConfig("bytecode")
	cfg.Warmup = 0
	ts := httptest.NewServer(newTestServer(t, cfg).Handler())
	defer ts.Close()
	const series = `phpserve_tier_requests_total{app="phpscript-blog",config="accelerated",tier="bytecode"}`
	for round, requests := range []int64{0, 1} {
		if requests > 0 {
			drive(t, ts.URL, int(requests))
		}
		var st struct {
			Tier *php.TierSnapshot `json:"tier"`
		}
		if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/stats")), &st); err != nil {
			t.Fatal(err)
		}
		if tz := st.Tier; tz == nil || !tz.Enabled || tz.Mode != "bytecode" || tz.Requests != requests {
			t.Fatalf("round %d: /stats tier = %+v, want enabled bytecode with %d requests", round, tz, requests)
		}
		metrics := scrape(t, ts.URL, "/metrics")
		if !strings.Contains(metrics, series+" ") {
			t.Fatalf("round %d: /metrics lacks %s", round, series)
		}
		if strings.Contains(metrics, `tier=""`) {
			t.Fatalf("round %d: /metrics carries an empty tier label", round)
		}
	}
}

// TestTierzDisabled checks a server without the tier plane leaves the
// tier key out of /stats.
func TestTierzDisabled(t *testing.T) {
	ts := httptest.NewServer(testServer(t, 1, 1, 0, nil).Handler())
	defer ts.Close()
	var doc map[string]any
	if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/stats")), &doc); err != nil {
		t.Fatal(err)
	}
	if tz, ok := doc["tier"]; ok {
		t.Errorf("untiered /stats carries a tier key: %v", tz)
	}
}

// TestTierMetricsSeries checks the phpserve_tier_* series appear on
// /metrics for a tiered server and are absent on an untiered one.
func TestTierMetricsSeries(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, tieredConfig("bytecode")).Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`phpserve_tier_requests_total{app="phpscript-blog",config="accelerated",tier="bytecode"}`,
		`phpserve_tier_ic_hits_total`,
		`phpserve_tier_type_stable_hits_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed metric line: %q", line)
		}
	}

	untiered := testServer(t, 1, 1, 0, nil)
	ts2 := httptest.NewServer(untiered.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "phpserve_tier_") {
		t.Error("untiered server should expose no phpserve_tier_* series")
	}
}
