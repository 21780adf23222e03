// Package experiments reproduces the paper's evaluation — Figures 1–15
// and the §2/§4/§5 tables — at one scale, as one Report: a flat, ordered
// list of every number cmd/figures prints. The Report is committed as
// FIGURES.json; `make bench-check` rebuilds it and compares it exactly
// (Drift), the paper's own numbers and the bands the shape tests hold the
// reproduction to live in one table (paper.go), and EXPERIMENTS.md's
// generated block is Render's output over the committed file.
package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/benchrec"
	"repro/internal/uarch"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The one scale. VM-driven figures follow the paper's methodology
// (oss-performance: 300 warmup requests, then the measured window). The
// uarch figures run at the stream length internal/uarch's synthetic
// profiles were calibrated at: at 4M instructions branch MPKI reads
// 15.35 / 12.57 / 13.57 / 2.09 against the paper's 17.26 / 14.48 /
// 15.14 / 2.9 (EXPERIMENTS.md, DESIGN.md).
const (
	seed              = 1
	warmup            = 300
	requests          = 200
	uarchInstructions = 1_500_000
)

// Value is one number of one figure.
type Value struct {
	Figure string  `json:"figure"`
	Row    string  `json:"row"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// Key names the value the way drift lines and the paper table do.
func (v Value) Key() string { return v.Figure + "[" + v.Row + "]." + v.Metric }

// Report is every number of every figure, in presentation order.
type Report []Value

// Get returns one value and whether the report holds it.
func (r Report) Get(figure, row, metric string) (float64, bool) {
	for _, v := range r {
		if v.Figure == figure && v.Row == row && v.Metric == metric {
			return v.Value, true
		}
	}
	return 0, false
}

// IDs lists the figure ids in presentation order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// runKey identifies one simulation: vm.Config is comparable, so two
// figures asking for the same application on the same core share a run.
type runKey struct {
	app string
	cfg vm.Config
}

type runOut struct {
	rt  *vm.Runtime
	res workload.Result
}

// streamKey identifies one uarch characterization the same way.
type streamKey struct {
	profile      string
	instructions int64
	ittage       bool
}

// builder fills a Report figure by figure, simulating each distinct
// (app, config) and characterizing each distinct instruction stream once.
type builder struct {
	rep     Report
	fig     string
	runs    map[runKey]runOut
	streams map[streamKey]uarch.StreamStats
}

// Build runs the named figures (all of them when only is empty) and
// returns their values. For one seed it is a pure function of the code.
func Build(only []string) (Report, error) {
	known, want := map[string]bool{}, map[string]bool{}
	for _, f := range figures {
		known[f.id] = true
	}
	for _, id := range only {
		if !known[id] {
			return nil, fmt.Errorf("experiments: no figure %q (have %s)", id, strings.Join(IDs(), ","))
		}
		want[id] = true
	}
	b := &builder{runs: map[runKey]runOut{}, streams: map[streamKey]uarch.StreamStats{}}
	for _, f := range figures {
		if len(only) == 0 || want[f.id] {
			b.fig = f.id
			f.fill(b)
		}
	}
	return b.rep, nil
}

func (b *builder) add(row, metric string, v float64) {
	b.rep = append(b.rep, Value{Figure: b.fig, Row: row, Metric: metric, Value: v})
}

// addAverage appends an "average" row: the mean of each metric over the
// rows the current figure has so far.
func (b *builder) addAverage() {
	var metrics []string
	sum, n := map[string]float64{}, map[string]float64{}
	for _, v := range b.rep {
		if v.Figure != b.fig {
			continue
		}
		if n[v.Metric] == 0 {
			metrics = append(metrics, v.Metric)
		}
		sum[v.Metric] += v.Value
		n[v.Metric]++
	}
	for _, m := range metrics {
		b.add("average", m, sum[m]/n[m])
	}
}

// config returns one of the paper's three cores (vm.ConfigByName) with no
// operation trace — only the key-statistics table reads one — and the
// heap timeline Fig. 8 samples.
func config(name string) vm.Config {
	cfg, err := vm.ConfigByName(name)
	if err != nil {
		panic(err) // the names are this package's constants
	}
	cfg.TraceCapacity = -1
	cfg.HeapSampleEvery = 256
	return cfg
}

// run serves the measured window of app on cfg, once per distinct pair,
// on a one-worker pool whose worker the builder then keeps: the figures
// read its runtime's meter and accelerator state.
func (b *builder) run(app string, cfg vm.Config) (*vm.Runtime, workload.Result) {
	key := runKey{app, cfg}
	if out, ok := b.runs[key]; ok {
		return out.rt, out.res
	}
	pool, err := workload.NewPool(1, cfg, app, seed)
	if err != nil {
		panic(err) // the names are this package's constants
	}
	res := pool.Run(workload.LoadGenerator{Warmup: warmup, Requests: requests, ContextSwitchEvery: 64}, 0)
	rt := pool.Acquire().Runtime()
	b.runs[key] = runOut{rt, res}
	return rt, res
}

// Drift returns one "figure[row].metric base -> fresh" line for every
// value that differs at all, and one for every value only one side has.
func Drift(base, fresh Report) []string {
	return benchrec.KeyedDrift(base, fresh, Value.Key, func(b, f Value) []string {
		if b.Value == f.Value {
			return nil
		}
		return []string{fmt.Sprintf("%s %v -> %v", b.Key(), b.Value, f.Value)}
	})
}

// Marshal renders the record as JSON, one value per line, so a diff of
// FIGURES.json reads like Drift's output.
func (r Report) Marshal() ([]byte, error) {
	out := bytes.NewBufferString("[")
	for i, v := range r {
		line, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", v.Key(), err)
		}
		if i > 0 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
		out.Write(line)
	}
	out.WriteString("\n]\n")
	return out.Bytes(), nil
}

// Load reads a record written by Marshal.
func Load(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	if len(r) == 0 {
		return nil, fmt.Errorf("experiments: %s holds no values", path)
	}
	return r, nil
}

// format prints counts whole and everything else to two decimals.
func format(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// Render writes the report as one table per figure — aligned for a
// terminal and valid as a Markdown table — each followed by the paper
// table's rows for that figure.
func (r Report) Render(w io.Writer) error {
	for _, f := range figures {
		var rows, metrics []string
		cell := map[[2]string]string{}
		seenRow, seenMetric := map[string]bool{}, map[string]bool{}
		for _, v := range r {
			if v.Figure != f.id {
				continue
			}
			if !seenRow[v.Row] {
				seenRow[v.Row] = true
				rows = append(rows, v.Row)
			}
			if !seenMetric[v.Metric] {
				seenMetric[v.Metric] = true
				metrics = append(metrics, v.Metric)
			}
			cell[[2]string{v.Row, v.Metric}] = format(v.Value)
		}
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n### %s — %s\n\n", f.id, f.title)
		tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', tabwriter.Debug)
		fmt.Fprintf(tw, "%s\t%s\t\n", f.rowHead, strings.Join(metrics, "\t"))
		fmt.Fprintf(tw, "---%s\n", strings.Repeat("\t---", len(metrics))+"\t")
		for _, row := range rows {
			fmt.Fprint(tw, row)
			for _, m := range metrics {
				fmt.Fprint(tw, "\t", cell[[2]string{row, m}])
			}
			fmt.Fprint(tw, "\t\n")
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		for i, p := range paperTable {
			if p.Figure != f.id {
				continue
			}
			if i == 0 || paperTable[i-1].Figure != f.id {
				fmt.Fprintln(w)
			}
			got, _ := r.Get(p.Figure, p.Row, p.Metric)
			fmt.Fprintf(w, "- paper: %s %s = %s ± %s, measured %s", p.Row, p.Metric, format(p.Value), format(p.Tol), format(got))
			if p.Note != "" {
				fmt.Fprintf(w, " (%s)", p.Note)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// The generated block of EXPERIMENTS.md sits between these two lines.
const (
	docBegin = "<!-- figures:begin (generated from FIGURES.json by `make bench-record`; do not edit) -->\n"
	docEnd   = "\n<!-- figures:end -->"
)

// Doc returns md with its generated block replaced by r's rendering:
// `figures -write` stores the result, the docs check requires it to
// equal the committed file.
func (r Report) Doc(md []byte) ([]byte, error) {
	i, j := bytes.Index(md, []byte(docBegin)), bytes.Index(md, []byte(docEnd))
	if i < 0 || j < i {
		return nil, errors.New("experiments: the document has no figures:begin/figures:end block")
	}
	out := bytes.NewBuffer(append([]byte(nil), md[:i+len(docBegin)]...))
	if err := r.Render(out); err != nil {
		return nil, err
	}
	out.Write(md[j:])
	return out.Bytes(), nil
}
