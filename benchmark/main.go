// Command benchmark is the repo's benchmark: it builds cmd/phpserve and
// cmd/phprouter, spawns them on loopback, drives four workloads over
// real sockets from one closed-loop generator, verifies every response
// body against an in-process reference, and reports the end-to-end
// metrics of BENCHMARK.json plus a per-layer host-time budget measured
// from outside the servers. See README.md.
//
//	go run -C benchmark . -seed 1                       # all workloads, table
//	go run -C benchmark . -workload wp_accel -json      # one workload, JSON
//	go run -C benchmark . -selfcheck                    # A/A: 2 x 3 alternating full sets
//	sh benchmark/run.sh --workload wp_accel --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type nameList []string

func (n *nameList) String() string     { return strings.Join(*n, ",") }
func (n *nameList) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	var names nameList
	flag.Var(&names, "workload", "workload to run (repeatable; default all): wp_accel, wp_soft, script_blog, cluster_cache")
	seed := flag.Int64("seed", 1, "workload seed: phpserve -seed for the render workloads, the client's Zipf page stream for cluster_cache")
	seconds := flag.Int("seconds", 20, "length of the timed pass in seconds (whole 2 s windows)")
	traceMode := flag.Int("trace", -1, "driver protocol: 0 prints the end-to-end metrics as the last line, 1 the per-layer metrics; -1 prints the full report")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
	asJSON := flag.Bool("json", false, "print one JSON object keyed by workload and metric name")
	selfcheck := flag.Bool("selfcheck", false, "A/A check: run the full set 3 times per side, alternating; fail if a side's median of an end-to-end metric differs by more than its bound although the runs' own spread is inside it, or a simulated number differs at all")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *traceMode < -1 || *traceMode > 1 {
		flag.Usage()
		os.Exit(2)
	}

	// The generator shares the box with the servers: cap it at two
	// threads of Go code, the number of closed-loop clients.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, cli{names, *seed, *seconds, *traceMode, *traceOut, *asJSON, *selfcheck})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// cli holds the parsed flags.
type cli struct {
	names     []string
	seed      int64
	seconds   int
	traceMode int
	traceOut  string
	asJSON    bool
	selfcheck bool
}

// run performs what the flags ask for and returns the exit code.
func run(ctx context.Context, c cli) (int, error) {
	specs := workloads
	if len(c.names) > 0 {
		specs = nil
		for _, n := range c.names {
			s, err := workloadByName(n)
			if err != nil {
				return 2, err
			}
			specs = append(specs, s)
		}
	}
	if c.traceMode >= 0 && len(specs) != 1 {
		return 2, fmt.Errorf("-trace %d reports one workload per run; name it with -workload", c.traceMode)
	}
	root, err := repoRoot()
	if err != nil {
		return 1, err
	}
	bins, err := buildBinaries(ctx, root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: go build of phpserve + phprouter took %.2fs (not part of setup_s)\n", bins.buildTime.Seconds())
	if err := reapStrays(bins); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: before the run:", err)
	}
	defer reapStrays(bins)

	opt := runOptions{seed: c.seed, seconds: c.seconds, window: window, layers: c.traceMode != 0}
	runSet := func() ([]*result, error) {
		var out []*result
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d ...\n", spec.Name, c.seed)
			res, err := runWorkload(ctx, bins, spec, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", spec.Name, p)
			}
			for i, w := range res.Windows {
				fmt.Fprintf(os.Stderr, "benchmark: %s window %d: %d samples, %.1f req/s, p50 %.4f ms, p99 %.4f ms, cpu %.1f us/req, steal %.3f\n",
					spec.Name, i, w.samples, w.reqPerS, w.p50ms, w.p99ms, w.cpuUs, w.steal)
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s: metrics are medians of the %d least-stolen windows (steal up to %.3f)\n",
				spec.Name, len(res.Calm), res.Calm[len(res.Calm)-1].steal)
			out = append(out, res)
		}
		return out, nil
	}

	first, err := runSet()
	if err != nil {
		return 1, err
	}
	if c.traceOut != "" {
		var spans []span
		for _, r := range first {
			spans = appendSpans(spans, r.Workload, r.Spans)
		}
		if err := writeSpans(c.traceOut, spans); err != nil {
			return 1, err
		}
	}
	code := 0
	for _, r := range first {
		if !r.correct() {
			code = 1
		}
	}

	switch {
	case c.traceMode >= 0:
		printDriverLine(first[0], c.traceMode)
	case c.selfcheck:
		// Sets alternate between the two sides (A B A B A B), so slow
		// drift of the host lands on both.
		sides := [2][][]*result{{first}, nil}
		for i := 1; i < 2*selfcheckSets; i++ {
			set, err := runSet()
			if err != nil {
				return 1, err
			}
			sides[i%2] = append(sides[i%2], set)
		}
		for i := 0; i < selfcheckSets; i++ {
			printReport(sides[0][i], c.asJSON)
			printReport(sides[1][i], c.asJSON)
		}
		lines, failures := compareSides(sides[0], sides[1])
		for _, l := range lines {
			fmt.Println("selfcheck:", l)
		}
		if failures > 0 {
			code = 1
		} else {
			fmt.Println("selfcheck: the two sides agree: no end-to-end median outside its bound with the runs' spread inside it, every simulated number identical, no failed request")
		}
	default:
		printReport(first, c.asJSON)
	}
	return code, nil
}

// metricValue is the contract's {"value", "unit"} pair.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricObject(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v := values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out
}

// printDriverLine prints the result line the benchmark driver reads:
// the end-to-end metrics with -trace 0, the per-layer ones with -trace 1.
func printDriverLine(r *result, traceMode int) {
	specs, values := endToEnd, r.EndToEnd
	if traceMode == 1 {
		specs, values = perLayer, r.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metricObject(specs, values)})
	fmt.Println(string(line))
}

// printReport prints every metric of every workload by name with its
// unit: a table, or with -json one object ending in "claim": null.
func printReport(set []*result, asJSON bool) {
	if asJSON {
		type wl struct {
			Seed      int64                  `json:"seed"`
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			EndToEnd  map[string]metricValue `json:"end_to_end"`
			PerLayer  map[string]metricValue `json:"per_layer"`
		}
		out := struct {
			Workloads map[string]wl `json:"workloads"`
			Claim     *string       `json:"claim"`
		}{Workloads: map[string]wl{}}
		for _, r := range set {
			out.Workloads[r.Workload] = wl{r.Seed, r.correct(), r.Attempted, r.Failed,
				metricObject(reported, r.EndToEnd), metricObject(perLayer, r.PerLayer)}
		}
		b, _ := json.MarshalIndent(out, "", "  ")
		fmt.Println(string(b))
		return
	}
	for _, r := range set {
		fmt.Printf("\n== %s (seed %d) ==\n", r.Workload, r.Seed)
		fmt.Printf("  %-28s %14d  attempted\n  %-28s %14d  failed\n  %-28s %14v\n",
			"requests", r.Attempted, "", r.Failed, "correct", r.correct())
		fmt.Printf("  %-28s %14.2f  s (reported apart from setup_s)\n", "go_build", r.BuildTime.Seconds())
		fmt.Printf("  -- end to end (median of the %d calm windows of %d [min .. max]) --\n", len(r.Calm), len(r.Windows))
		for _, s := range reported {
			fmt.Printf("  %-28s %14.4f  %-6s", s.Name, r.EndToEnd[s.Name], s.Unit)
			if f, ok := windowMetrics[s.Name]; ok {
				lo, hi := minMax(r.column(f))
				fmt.Printf(" [%.4f .. %.4f]", lo, hi)
			}
			fmt.Println()
		}
		fmt.Print("  samples per window:")
		for _, w := range r.Windows {
			fmt.Printf(" %d", w.samples)
		}
		fmt.Println()
		if r.PerLayer == nil {
			continue
		}
		fmt.Println("  -- per layer (0 = layer does not run on this workload) --")
		var shareNames []string
		for _, s := range perLayer {
			if strings.HasPrefix(s.Name, "share.") {
				shareNames = append(shareNames, s.Name)
				continue
			}
			fmt.Printf("  %-32s %16.4f  %s\n", s.Name, r.PerLayer[s.Name], s.Unit)
		}
		fmt.Println("  -- share of workload.render_us (count x unit cost) --")
		sort.SliceStable(shareNames, func(i, j int) bool { return r.PerLayer[shareNames[i]] > r.PerLayer[shareNames[j]] })
		sum := 0.0
		for _, n := range shareNames {
			if v := r.PerLayer[n]; v != 0 {
				fmt.Printf("  %-32s %16.4f\n", n, v)
				sum += v
			}
		}
		fmt.Printf("  %-32s %16.4f\n", "sum", sum)
	}
}

// selfcheckSets is how many full sets -selfcheck runs per side.
const selfcheckSets = 3

// compareSides is the A/A check over two sides of selfcheckSets sets
// each (sides[i][j] is workload j of the side's i-th set). An end-to-end
// metric is compared by the two sides' medians. A difference beyond the
// bound counts as a failure only when the runs of each side agree among
// themselves to within the bound; with a wider spread the pair cannot be
// told apart on this machine and is reported as unresolved. Numbers the
// simulated machine produced must be identical in every run, and no
// request may fail. It returns one line per finding and the number of
// failures.
func compareSides(a, b [][]*result) (lines []string, failures int) {
	all := append(append([][]*result(nil), a...), b...)
	for w := range a[0] {
		name := a[0][w].Workload
		column := func(sets [][]*result, metric string) []float64 {
			vs := make([]float64, len(sets))
			for i, set := range sets {
				vs[i] = set[w].EndToEnd[metric]
			}
			return vs
		}
		for _, s := range reported {
			va, vb := column(a, s.Name), column(b, s.Name)
			if s.Name == failRatio.Name {
				// Absolute bound on each side's worst run; any failed
				// request is also reported run by run below.
				_, wa := minMax(va)
				_, wb := minMax(vb)
				if math.Abs(wb-wa) > s.Bound {
					lines = append(lines, fmt.Sprintf("FAIL %s %s: worst runs %.6f vs %.6f, bound +%.3f", name, s.Name, wa, wb, s.Bound))
					failures++
				}
				continue
			}
			ma, mb := median(va), median(vb)
			diff := math.Abs(mb-ma) / ma
			if diff <= s.Bound {
				continue
			}
			spread := math.Max(quartileSpread(va), quartileSpread(vb))
			verdict := "FAIL"
			if spread > s.Bound {
				verdict = "unresolved"
			} else {
				failures++
			}
			lines = append(lines, fmt.Sprintf("%s %s %s: medians %.4f vs %.4f differ by %.1f%%, bound %.0f%%, spread within a side %.1f%%",
				verdict, name, s.Name, ma, mb, 100*diff, 100*s.Bound, 100*spread))
		}
		for _, s := range perLayer {
			if !exactPerLayer(s.Name) {
				continue
			}
			for _, set := range all[1:] {
				if v0, v := all[0][w].PerLayer[s.Name], set[w].PerLayer[s.Name]; v != v0 {
					lines = append(lines, fmt.Sprintf("FAIL %s %s: %v vs %v must be identical", name, s.Name, v0, v))
					failures++
					break
				}
			}
		}
		for _, set := range all {
			if r := set[w]; !r.correct() {
				lines = append(lines, fmt.Sprintf("FAIL %s: %d of %d requests failed, problems %v", name, r.Failed, r.Attempted, r.Problems))
				failures++
			}
		}
	}
	return lines, failures
}
