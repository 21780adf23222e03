// Command phpserve exposes a simulated PHP workload over HTTP, the way
// the paper's evaluation serves WordPress/Drupal/MediaWiki from a pool
// of HHVM request workers behind a web frontend (§5.1). The server is
// serve.Server: bounded admission, per-request deadlines, typed
// 503/504 sheds and a graceful drain on SIGTERM/SIGINT; with -cache a
// response cache whose hits take no worker; with -fpm a cluster backend
// behind phprouter. This command fills its serve.ServerConfig from flags
// and serves it. `phpserve -h` lists the flags; docs/OPERATIONS.md
// describes them and every endpoint.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// options is phpserve's command line: the config its flags fill and the
// flags that are not config fields.
type options struct {
	c                       serve.ServerConfig
	addr, listen, accessLog string
	pprof, fpm              bool
}

// defineFlags registers phpserve's flags on fs; each usage string is
// the flag's one description (docs/OPERATIONS.md renders its table from
// them).
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.c
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.App, "app", "wordpress", "workload to serve (wordpress, drupal, mediawiki, specweb-banking, specweb-ecommerce, phpscript-blog)")
	fs.StringVar(&c.Core, "config", "accelerated", "core model: baseline (unmodified), mitigated (§3 software and ISA mitigations) or accelerated (mitigations plus all four accelerators)")
	fs.IntVar(&c.Workers, "workers", 4, "request workers, each a private runtime")
	fs.Int64Var(&c.Seed, "seed", 1, "workload seed (worker i uses seed+i)")
	fs.IntVar(&c.Warmup, "warmup", 300, "warmup requests per worker before listening (costs discarded, accelerator state kept warm)")
	fs.IntVar(&c.CtxSwitchEvery, "ctxswitch", 64, "simulate an OS context switch (accelerator state flush and reconfigure) every n requests per worker (0 disables)")
	fs.IntVar(&c.QueueDepth, "queue", 64, "admission queue depth beyond the worker count (0 sheds whenever all workers are busy)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "per-request deadline from admission (0 disables; expired requests get 504)")
	fs.DurationVar(&c.Drain, "drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests on SIGTERM/SIGINT")
	fs.IntVar(&c.CacheCapacity, "cache", 0, "response cache capacity in entries (0 disables the cache)")
	fs.IntVar(&c.Pages, "pages", 512, "distinct page identities requests draw from when the cache is on")
	fs.Float64Var(&c.ZipfS, "zipf", 1.0, "Zipf popularity exponent for server-drawn page identities (cache mode)")
	fs.Float64Var(&c.SampleRate, "sample", 0.01, "per-request span sampling rate in [0,1]; rate r samples every ⌈1/r⌉-th request")
	fs.StringVar(&o.accessLog, "accesslog", "", "JSON-lines access log for sampled requests and every shed (a path appended to, - for stdout, empty disables)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.IntVar(&c.TreeRing, "treering", 64, "sampled span trees retained for /tracez, a few KB each (0 disables, and /tracez answers 404)")
	fs.BoolVar(&o.fpm, "fpm", false, "run as a cluster backend process (FPM-style, behind phprouter): implies -backend 0 unless set")
	fs.IntVar(&c.Backend, "backend", -1, "cluster backend id stamped on X-Backend, /healthz, and access-log lines (-1 standalone)")
	fs.StringVar(&o.listen, "listen", "", "backend listen address; overrides -addr")
	fs.DurationVar(&c.DBWait, "dbwait", 0, "simulated per-render database stall, held on the worker FPM-style (0 disables)")
	fs.StringVar(&c.Tier, "tier", "", "script execution engine of a scripted -app: interp or bytecode, auto accepted as bytecode (empty leaves the tier plane off)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	c := o.c

	if o.listen != "" {
		o.addr = o.listen
	}
	if o.fpm && c.Backend == -1 {
		c.Backend = 0
	}
	logW, logC, err := obs.OpenAccessLog(o.accessLog)
	if err != nil {
		usage(err)
	}
	c.AccessLog = logW
	if o.pprof {
		c.Pprof = http.DefaultServeMux // where the net/http/pprof import registers its handlers
	}

	fmt.Printf("phpserve: warming %d %s worker(s) (%d requests each, %s core)\n", c.Workers, c.App, c.Warmup, c.Core)
	srv, err := serve.NewServer(c)
	if err != nil {
		usage(err)
	}
	err = srv.ListenAndServe(o.addr)
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
