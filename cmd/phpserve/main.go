// Command phpserve exposes a simulated PHP workload over HTTP, the way
// the paper's evaluation serves WordPress/Drupal/MediaWiki from a pool
// of HHVM request workers behind a web frontend (§5.1). The server is
// serve.Server: bounded admission, per-request deadlines, typed
// 503/504 sheds and a graceful drain on SIGTERM/SIGINT; with -cache a
// response cache whose hits take no worker; with -fpm a cluster backend
// behind phprouter. This command fills its serve.ServerConfig from flags
// and serves it.
//
// Usage:
//
//	phpserve [-addr :8080] [-app wordpress] [-config accelerated]
//	         [-workers 4] [-seed 1] [-warmup 300] [-ctxswitch 64]
//	         [-queue 64] [-timeout 0] [-drain 30s] [-arenacap 0]
//	         [-cache 0] [-cachettl 0] [-cacheshards 16]
//	         [-pages 512] [-zipf 1.0]
//	         [-sample 0.01] [-accesslog path|-] [-pprof]
//	         [-treering 64] [-tier interp|auto|bytecode]
//	         [-fpm] [-backend -1] [-listen addr] [-dbwait 0]
//
// Endpoints: / renders a page (?page=N names one), /stats, /metrics,
// /tracez, /profilez, /tierz, /healthz and, with -pprof, /debug/pprof/
// (docs/OPERATIONS.md describes each).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var c serve.ServerConfig
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&c.App, "app", "wordpress", "workload to serve (wordpress, drupal, mediawiki)")
	flag.StringVar(&c.Core, "config", "accelerated", "core config: baseline, mitigated, accelerated")
	flag.IntVar(&c.Workers, "workers", 4, "request workers (independent runtimes)")
	flag.Int64Var(&c.Seed, "seed", 1, "workload seed (worker i uses seed+i)")
	flag.IntVar(&c.Warmup, "warmup", 300, "warmup requests per worker before listening")
	flag.IntVar(&c.CtxSwitchEvery, "ctxswitch", 64, "context switch every n requests per worker (0 disables)")
	flag.IntVar(&c.QueueDepth, "queue", 64, "admission queue depth beyond the worker count (0 sheds whenever all workers are busy)")
	flag.DurationVar(&c.Timeout, "timeout", 0, "per-request deadline from admission (0 disables; expired requests get 504)")
	flag.DurationVar(&c.Drain, "drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests on SIGTERM/SIGINT")
	flag.IntVar(&c.ArenaCap, "arenacap", 0, "per-worker request-arena bytes retained across requests (0 retains everything; lower trades allocation churn for idle footprint)")
	flag.IntVar(&c.CacheCapacity, "cache", 0, "response cache capacity in entries (0 disables the cache)")
	flag.DurationVar(&c.CacheTTL, "cachettl", 0, "response cache entry time-to-live (0 never expires)")
	flag.IntVar(&c.CacheShards, "cacheshards", cache.DefaultShards, "response cache shard count (rounded up to a power of two)")
	flag.IntVar(&c.Pages, "pages", 512, "distinct page identities requests draw from when the cache is on")
	flag.Float64Var(&c.ZipfS, "zipf", 1.0, "Zipf popularity exponent for server-drawn page identities (cache mode)")
	flag.Float64Var(&c.SampleRate, "sample", 0.01, "per-request span sampling rate in [0,1]")
	accessLog := flag.String("accesslog", "", "JSON-lines access log for sampled spans and sheds (path, - for stdout, empty disables)")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.IntVar(&c.TreeRing, "treering", 64, "sampled span trees retained for /tracez (0 disables)")
	fpm := flag.Bool("fpm", false, "run as a cluster backend process (FPM-style, behind phprouter): implies -backend 0 unless set")
	flag.IntVar(&c.Backend, "backend", -1, "cluster backend id stamped on X-Backend, /healthz, and access-log lines (-1 standalone)")
	listen := flag.String("listen", "", "backend listen address; overrides -addr (the flag phprouter's spawner sets per backend)")
	flag.DurationVar(&c.DBWait, "dbwait", 0, "simulated per-render database stall, held on the worker FPM-style (0 disables)")
	flag.StringVar(&c.Tier, "tier", "", "script execution tier for scripted workloads: interp, auto (profile-guided promotion), or bytecode (empty leaves the tier plane off)")
	flag.Parse()

	if *listen != "" {
		*addr = *listen
	}
	if *fpm && c.Backend == -1 {
		c.Backend = 0
	}
	logW, logC, err := obs.OpenAccessLog(*accessLog)
	if err != nil {
		usage(err)
	}
	c.AccessLog = logW
	if *pprof {
		c.Pprof = http.DefaultServeMux // where the net/http/pprof import registers its handlers
	}

	fmt.Printf("phpserve: warming %d %s worker(s) (%d requests each, %s core)\n", c.Workers, c.App, c.Warmup, c.Core)
	srv, err := serve.NewServer(c)
	if err != nil {
		usage(err)
	}
	err = srv.ListenAndServe(*addr)
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
