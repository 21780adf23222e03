// Command phprouter is the cluster front for phpserve: a reverse proxy
// that routes each request to a backend by consistent hash on the page
// key, so every backend's response cache owns a stable slice of the key
// space (the PHP-FPM topology, with cache-affinity dispatch). The router
// is serve.Router: health-checked ring membership, typed 503 sheds
// before a backend saturates, reroute on a refused connection, request
// IDs and stitched traces. This command fills its serve.RouterConfig
// from flags, registers the -backends addresses of phpserve -fpm
// processes started on their own, and serves it. `phprouter -h` lists
// the flags; docs/OPERATIONS.md describes them and every endpoint.
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

// options is phprouter's command line: the config its flags fill and
// the flags that are not config fields.
type options struct {
	c                  serve.RouterConfig
	addr, backends     string
	pages              int
	zipf               float64
	seed               int64
	accessLog          string
	treeRing, eventBuf int
}

// defineFlags registers phprouter's flags on fs; each usage string is
// the flag's one description (docs/OPERATIONS.md renders its table from
// them).
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.c
	fs.StringVar(&o.addr, "addr", ":8090", "router listen address")
	fs.StringVar(&o.backends, "backends", "", "comma-separated backend addresses (host:port) of phpserve -fpm processes; backend i is the i-th (required)")
	fs.IntVar(&o.pages, "pages", 512, "page universe for router-drawn page identities; 0 routes on the raw request path instead")
	fs.Float64Var(&o.zipf, "zipf", 1.0, "Zipf exponent for router-drawn page identities")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the router's page-identity sampler")
	fs.IntVar(&c.MaxInflight, "maxinflight", 32, "per-backend inflight cap; beyond it the router sheds 503 without rerouting (0 unlimited)")
	fs.DurationVar(&c.HealthInterval, "health", 500*time.Millisecond, "backend /healthz probe interval")
	fs.DurationVar(&c.HealthTimeout, "healthtimeout", time.Second, "per-probe timeout")
	fs.DurationVar(&c.DrainGrace, "drain", 30*time.Second, "grace for the router's drain on SIGTERM")
	fs.StringVar(&o.accessLog, "accesslog", "", "JSON-lines access log for sampled proxied requests and every shed (a path appended to, - for stdout, empty disables)")
	fs.Float64Var(&c.SampleRate, "sample", 0.01, "per-request sampling rate in [0,1]: a sampled proxied request writes an access-log line and records a router span tree")
	fs.IntVar(&o.treeRing, "treering", 64, "sampled router span trees retained for /tracez, backend trees stitched in (0 disables)")
	fs.IntVar(&o.eventBuf, "eventbuf", 256, "cluster events retained for /eventz")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	c := o.c

	var external []string
	for _, a := range strings.Split(o.backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			external = append(external, a)
		}
	}
	for _, chk := range []struct {
		bad bool
		msg string
	}{
		{len(external) == 0, "need backends: set -backends host:port,..."},
		{o.pages < 0, fmt.Sprintf("-pages must be >= 0, got %d", o.pages)},
		{c.MaxInflight < 0, fmt.Sprintf("-maxinflight must be >= 0, got %d", c.MaxInflight)},
		{c.HealthInterval <= 0 || c.HealthTimeout <= 0, fmt.Sprintf("-health and -healthtimeout must be positive, got %v/%v", c.HealthInterval, c.HealthTimeout)},
		{c.DrainGrace < 0, fmt.Sprintf("-drain must be >= 0, got %v", c.DrainGrace)},
		{c.SampleRate < 0 || c.SampleRate > 1, fmt.Sprintf("-sample must be in [0,1], got %g", c.SampleRate)},
		{o.treeRing < 0, fmt.Sprintf("-treering must be >= 0, got %d", o.treeRing)},
		{o.eventBuf <= 0, fmt.Sprintf("-eventbuf must be positive, got %d", o.eventBuf)},
	} {
		if chk.bad {
			usage(fmt.Errorf("phprouter: %s", chk.msg))
		}
	}
	var err error
	if o.pages > 0 {
		if c.PageKeys, err = workload.NewZipfKeys(o.seed, o.zipf, o.pages); err != nil {
			usage(fmt.Errorf("phprouter: -zipf: %w", err))
		}
	}
	logW, logC, err := obs.OpenAccessLog(o.accessLog)
	if err != nil {
		usage(err)
	}
	if logW != nil {
		c.AccessLog = obs.NewAccessLog(logW)
	}
	c.Events = obs.NewEventRing(o.eventBuf)
	if o.treeRing > 0 {
		c.TreeRing = obs.NewTreeRing(o.treeRing)
	}

	r := serve.NewRouter(c)
	for i, a := range external {
		r.AddBackend(strconv.Itoa(i), a)
		fmt.Printf("phprouter: backend %d at %s\n", i, a)
	}
	err = r.ListenAndServe(o.addr)
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
