// Command phprouter is the cluster front for phpserve: a reverse proxy
// that routes each request to a backend by consistent hash on the page
// key, so every backend's response cache owns a stable slice of the key
// space (the PHP-FPM topology, with cache-affinity dispatch). The router
// is serve.Router: health-checked ring membership, typed 503 sheds
// before a backend saturates, reroute on a refused connection, request
// IDs and stitched traces. This command fills its serve.RouterConfig
// from flags, registers the -backends addresses of phpserve -fpm
// processes started on their own, and serves it.
//
// Usage:
//
//	phprouter -backends host:port,... [-addr :8090]
//	          [-pages 512] [-zipf 1.0] [-seed 1] [-maxinflight 32]
//	          [-health 500ms] [-healthtimeout 1s] [-drain 30s]
//	          [-accesslog path|-] [-sample 0.01] [-treering 64]
//	          [-eventbuf 256]
//
// Endpoints: / proxies renders; /metrics, /healthz, /backends, /tracez
// and /eventz (docs/OPERATIONS.md describes each).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var c serve.RouterConfig
	addr := flag.String("addr", ":8090", "router listen address")
	backends := flag.String("backends", "", "comma-separated backend addresses (host:port) of phpserve -fpm processes; backend i is the i-th (required)")
	pages := flag.Int("pages", 512, "page universe for router-drawn page identities; 0 routes on the raw request path instead")
	zipf := flag.Float64("zipf", 1.0, "Zipf exponent for router-drawn page identities")
	seed := flag.Int64("seed", 1, "seed for the router's page-identity sampler")
	flag.IntVar(&c.MaxInflight, "maxinflight", 32, "per-backend inflight cap; beyond it the router sheds 503 (0 unlimited)")
	flag.DurationVar(&c.HealthInterval, "health", 500*time.Millisecond, "backend /healthz probe interval")
	flag.DurationVar(&c.HealthTimeout, "healthtimeout", time.Second, "per-probe timeout")
	flag.DurationVar(&c.DrainGrace, "drain", 30*time.Second, "grace for the router's drain on SIGTERM")
	accessLog := flag.String("accesslog", "", "JSON-lines access log for sampled proxied requests and every shed (path, - for stdout, empty disables)")
	flag.Float64Var(&c.SampleRate, "sample", 0.01, "per-request router span-tree sampling rate in [0,1]")
	treeRing := flag.Int("treering", 64, "sampled router span trees retained for /tracez, backend trees stitched in (0 disables)")
	eventBuf := flag.Int("eventbuf", 256, "cluster events retained for /eventz")
	flag.Parse()

	var external []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			external = append(external, a)
		}
	}
	for _, chk := range []struct {
		bad bool
		msg string
	}{
		{len(external) == 0, "need backends: set -backends host:port,..."},
		{*pages < 0, fmt.Sprintf("-pages must be >= 0, got %d", *pages)},
		{c.MaxInflight < 0, fmt.Sprintf("-maxinflight must be >= 0, got %d", c.MaxInflight)},
		{c.HealthInterval <= 0 || c.HealthTimeout <= 0, fmt.Sprintf("-health and -healthtimeout must be positive, got %v/%v", c.HealthInterval, c.HealthTimeout)},
		{c.DrainGrace < 0, fmt.Sprintf("-drain must be >= 0, got %v", c.DrainGrace)},
		{c.SampleRate < 0 || c.SampleRate > 1, fmt.Sprintf("-sample must be in [0,1], got %g", c.SampleRate)},
		{*treeRing < 0, fmt.Sprintf("-treering must be >= 0, got %d", *treeRing)},
		{*eventBuf <= 0, fmt.Sprintf("-eventbuf must be positive, got %d", *eventBuf)},
	} {
		if chk.bad {
			usage(fmt.Errorf("phprouter: %s", chk.msg))
		}
	}
	var err error
	if *pages > 0 {
		if c.PageKeys, err = workload.NewZipfKeys(*seed, *zipf, *pages); err != nil {
			usage(fmt.Errorf("phprouter: -zipf: %w", err))
		}
	}
	logW, logC, err := obs.OpenAccessLog(*accessLog)
	if err != nil {
		usage(err)
	}
	if logW != nil {
		c.AccessLog = obs.NewAccessLog(logW)
	}
	c.Events = obs.NewEventRing(*eventBuf)
	if *treeRing > 0 {
		c.TreeRing = obs.NewTreeRing(*treeRing)
	}

	r := serve.NewRouter(c)
	for i, a := range external {
		r.AddBackend(strconv.Itoa(i), a)
		fmt.Printf("phprouter: backend %d at %s\n", i, a)
	}
	err = r.ListenAndServe(*addr)
	if logC != nil {
		logC.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usage reports a configuration error the way flag parsing does: the
// error, the flag list, exit status 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	flag.Usage()
	os.Exit(2)
}
