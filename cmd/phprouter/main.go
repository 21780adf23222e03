// Command phprouter is the cluster front for phpserve: a reverse proxy
// that routes each request to a backend by consistent hash on the page
// key, so every backend's response cache owns a stable slice of the key
// space (the PHP-FPM topology, with cache-affinity dispatch). The router
// is serve.Router: health-checked ring membership, typed 503 sheds
// before a backend saturates, reroute on a refused connection, request
// IDs and stitched traces, the merged fleet view, and POST /restart
// rolling every spawned backend. This command fills its
// serve.RouterConfig from flags, registers the backends — -backends
// addresses of external phpserve -fpm processes, or -spawn N children
// it supervises — and serves it.
//
// Usage:
//
//	phprouter [-addr :8090] [-backends host:port,...] [-spawn 4]
//	          [-phpserve ./phpserve] [-baseport 9101] [-backendargs "..."]
//	          [-pages 512] [-zipf 1.0] [-seed 1] [-replicas 2048]
//	          [-maxinflight 32] [-health 500ms] [-healthtimeout 1s]
//	          [-retrywait 60s] [-drain 30s]
//	          [-accesslog path|-] [-sample 0.01] [-treering 64]
//	          [-eventbuf 256] [-scrapetimeout 2s]
//
// Endpoints: / proxies renders; /metrics, /healthz, /backends, /tracez,
// /clusterz, /eventz and POST /restart (docs/OPERATIONS.md describes
// each).
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
	backends := flag.String("backends", "", "comma-separated backend addresses (host:port) of externally managed phpserve -fpm processes")
	spawn := flag.Int("spawn", 0, "spawn and supervise this many phpserve backend processes (mutually exclusive with -backends)")
	bin := flag.String("phpserve", "./phpserve", "phpserve binary to spawn backends from (spawn mode)")
	baseport := flag.Int("baseport", 9101, "first backend port; backend i listens on 127.0.0.1:baseport+i (spawn mode)")
	backendArgs := flag.String("backendargs", "", "extra space-separated flags passed to every spawned phpserve (e.g. \"-cache 64 -workers 2\")")
	pages := flag.Int("pages", 512, "page universe for router-drawn page identities; 0 routes on the raw request path instead")
	zipf := flag.Float64("zipf", 1.0, "Zipf exponent for router-drawn page identities")
	seed := flag.Int64("seed", 1, "seed for the router's page-identity sampler")
	flag.IntVar(&c.RingReplicas, "replicas", 2048, "virtual nodes per backend on the affinity ring (more = smoother key split)")
	flag.IntVar(&c.MaxInflight, "maxinflight", 32, "per-backend inflight cap; beyond it the router sheds 503 (0 unlimited)")
	flag.DurationVar(&c.HealthInterval, "health", 500*time.Millisecond, "backend /healthz probe interval")
	flag.DurationVar(&c.HealthTimeout, "healthtimeout", time.Second, "per-probe timeout")
	flag.DurationVar(&c.StartupWait, "retrywait", 60*time.Second, "startup budget for spawned backends to become healthy (covers warmup)")
	flag.DurationVar(&c.DrainGrace, "drain", 30*time.Second, "grace for router drain on SIGTERM and per-backend drain during rolling restarts")
	accessLog := flag.String("accesslog", "", "JSON-lines access log for sampled proxied requests and every shed (path, - for stdout, empty disables)")
	flag.Float64Var(&c.SampleRate, "sample", 0.01, "per-request router span-tree sampling rate in [0,1]")
	treeRing := flag.Int("treering", 64, "sampled router span trees retained for /tracez, backend trees stitched in (0 disables)")
	eventBuf := flag.Int("eventbuf", 256, "cluster events retained for /eventz")
	flag.DurationVar(&c.ScrapeTimeout, "scrapetimeout", 2*time.Second, "budget for one fleet scrape pass behind /clusterz and the phprouter_cluster_* gauges")
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
		{*spawn < 0, fmt.Sprintf("-spawn must be >= 0, got %d", *spawn)},
		{*spawn > 0 && len(external) > 0, "-spawn and -backends are mutually exclusive"},
		{*spawn == 0 && len(external) == 0, "need backends: set -spawn N or -backends host:port,..."},
		{*pages < 0, fmt.Sprintf("-pages must be >= 0, got %d", *pages)},
		{c.MaxInflight < 0, fmt.Sprintf("-maxinflight must be >= 0, got %d", c.MaxInflight)},
		{c.RingReplicas <= 0, fmt.Sprintf("-replicas must be positive, got %d", c.RingReplicas)},
		{c.HealthInterval <= 0 || c.HealthTimeout <= 0, fmt.Sprintf("-health and -healthtimeout must be positive, got %v/%v", c.HealthInterval, c.HealthTimeout)},
		{c.DrainGrace < 0, fmt.Sprintf("-drain must be >= 0, got %v", c.DrainGrace)},
		{c.SampleRate < 0 || c.SampleRate > 1, fmt.Sprintf("-sample must be in [0,1], got %g", c.SampleRate)},
		{*treeRing < 0, fmt.Sprintf("-treering must be >= 0, got %d", *treeRing)},
		{*eventBuf <= 0, fmt.Sprintf("-eventbuf must be positive, got %d", *eventBuf)},
		{c.ScrapeTimeout <= 0, fmt.Sprintf("-scrapetimeout must be positive, got %v", c.ScrapeTimeout)},
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
	if *spawn > 0 {
		err = r.Spawn(*spawn, *bin, *baseport, strings.Fields(*backendArgs))
	}
	for i, a := range external {
		r.AddBackend(strconv.Itoa(i), a)
		fmt.Printf("phprouter: backend %d at %s\n", i, a)
	}
	if err == nil {
		err = r.ListenAndServe(*addr)
	}
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
