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

// tieredConfig is a scripted-workload server with the tier plane in the
// given mode, warmed long enough for the default promotion policy to
// cross the tier boundary.
func tieredConfig(mode php.TierMode) serve.ServerConfig {
	return serve.ServerConfig{
		App: "phpscript-blog", Core: "accelerated", Workers: 2, Seed: 1,
		Warmup: 64, QueueDepth: 64, SampleRate: 1, Tier: mode.String(), Backend: -1,
	}
}

// TestTierzEndpoint drives a tiered scripted server and checks /tierz
// reports promotion and per-tier call counts in both formats.
func TestTierzEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, tieredConfig(php.TierAuto)).Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/tierz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"mode auto", "promotions", "inline caches:", "render_post"} {
		if !strings.Contains(text, want) {
			t.Errorf("/tierz table missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/tierz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var tz php.TierSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&tz); err != nil {
		t.Fatal(err)
	}
	if !tz.Enabled || tz.Mode != "auto" {
		t.Errorf("tierz should report the enabled auto tier: %+v", tz)
	}
	if tz.Promotions == 0 || tz.BytecodeCalls == 0 {
		t.Errorf("warmup should have promoted hot functions: %+v", tz)
	}
	if tz.ICSites == 0 || tz.ICHits == 0 {
		t.Errorf("promoted code should exercise inline caches: %+v", tz)
	}
	if len(tz.Fns) == 0 {
		t.Error("tierz json should list per-function rows")
	}
}

// TestTierzDisabled checks the endpoint answers gracefully on a server
// without the tier plane.
func TestTierzDisabled(t *testing.T) {
	s := testServer(t, 1, 1, 0, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/tierz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "tiering off") {
		t.Errorf("untiered /tierz should say so: %q", body)
	}
}

// TestTierMetricsSeries checks the phpserve_tier_* series appear on
// /metrics for a tiered server and are absent on an untiered one.
func TestTierMetricsSeries(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, tieredConfig(php.TierBytecode)).Handler())
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
		`phpserve_tier_bytecode_calls_total`,
		`phpserve_tier_interp_calls_total`,
		`phpserve_tier_ic_hits_total`,
		`phpserve_tier_promoted_functions`,
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
