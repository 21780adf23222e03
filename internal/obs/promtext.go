package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format parsing and merging — the read side of the
// Encoder in prom.go. A cluster router scrapes each backend's /metrics,
// parses the exposition with ParsePromText, and folds the fleet together
// with MergeFamilies: counters and gauges sum, and histograms merge
// bucket-wise because their _bucket/_sum/_count series are themselves
// counters keyed by the shared `le` bounds.

// PromSample is one parsed sample line: its full series name (which for
// histogram families includes the _bucket/_sum/_count suffix), labels in
// exposition order, and value.
type PromSample struct {
	Name   string
	Labels []Label
	Value  float64
}

// MetricFamily is one parsed metric family: the # HELP/# TYPE header
// plus every sample line that belongs to it.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | summary | untyped
	Samples []PromSample
}

// Sum returns the sum of the family's base-name samples whose labels
// include every match pair. Suffixed series (_bucket, _sum, _count) and
// summary quantile lines are excluded, so summing a histogram family
// yields 0 — use Histogram for those.
func (f *MetricFamily) Sum(match ...Label) float64 {
	if f == nil {
		return 0
	}
	var total float64
	for _, s := range f.Samples {
		if s.Name != f.Name || !labelsInclude(s.Labels, match) {
			continue
		}
		if f.Type == "summary" && hasLabel(s.Labels, "quantile") {
			continue
		}
		total += s.Value
	}
	return total
}

// Histogram reconstructs a cumulative HistogramSnapshot from the
// family's _bucket/_sum/_count samples, aggregating across label sets
// (per-backend labelled histograms fold into one fleet distribution).
// Bounds are the union of observed finite `le` values, ascending.
func (f *MetricFamily) Histogram() HistogramSnapshot {
	var snap HistogramSnapshot
	if f == nil {
		return snap
	}
	byLE := map[float64]uint64{}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := leBound(s.Labels)
			if !ok || math.IsInf(le, 1) {
				continue
			}
			byLE[le] += uint64(s.Value)
		case f.Name + "_sum":
			snap.Sum += s.Value
		case f.Name + "_count":
			snap.Count += uint64(s.Value)
		}
	}
	snap.Bounds = make([]float64, 0, len(byLE))
	for le := range byLE {
		snap.Bounds = append(snap.Bounds, le)
	}
	sort.Float64s(snap.Bounds)
	snap.Counts = make([]uint64, len(snap.Bounds))
	for i, le := range snap.Bounds {
		snap.Counts[i] = byLE[le]
	}
	return snap
}

// leBound extracts and parses a bucket sample's `le` label.
func leBound(labels []Label) (float64, bool) {
	for _, l := range labels {
		if l.Name == "le" {
			v, err := strconv.ParseFloat(l.Value, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// hasLabel reports whether labels contain a label with the given name.
func hasLabel(labels []Label, name string) bool {
	for _, l := range labels {
		if l.Name == name {
			return true
		}
	}
	return false
}

// labelsInclude reports whether labels contain every pair in want.
func labelsInclude(labels, want []Label) bool {
	for _, w := range want {
		found := false
		for _, l := range labels {
			if l.Name == w.Name && l.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ParsePromText parses a Prometheus text-format exposition (version
// 0.0.4, the format the Encoder writes) into metric families in
// exposition order. Samples that appear without a preceding # TYPE
// header get an implicit untyped family. Unparseable lines fail fast —
// scrapes are machine-to-machine, so corruption is a bug, not noise.
func ParsePromText(r io.Reader) ([]*MetricFamily, error) {
	var fams []*MetricFamily
	byName := map[string]*MetricFamily{}
	var cur *MetricFamily

	family := func(name, typ string) *MetricFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &MetricFamily{Name: name, Type: typ}
		byName[name] = f
		fams = append(fams, f)
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				f := family(fields[2], "untyped")
				if fields[1] == "TYPE" && len(fields) >= 4 {
					f.Type = strings.TrimSpace(fields[3])
					cur = f
				} else if fields[1] == "HELP" {
					if len(fields) >= 4 {
						f.Help = fields[3]
					}
					cur = f
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom parse line %d: %w", lineNo, err)
		}
		f := cur
		if f == nil || (s.Name != f.Name && !strings.HasPrefix(s.Name, f.Name+"_")) {
			f = family(s.Name, "untyped")
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: prom parse: %w", err)
	}
	return fams, nil
}

// parseSampleLine parses `name{a="b",...} value [timestamp]`.
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parsePromValue parses a sample value, including the exposition
// spellings of the non-finite values.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a `{a="b",c="d"}` block starting at s[0] == '{',
// returning the index just past the closing brace. Escaped `\"`, `\\`,
// and `\n` inside values are unescaped.
func parseLabels(s string) (int, []Label, error) {
	var labels []Label
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("unterminated label block in %q", s)
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing quote
		labels = append(labels, Label{Name: name, Value: val.String()})
	}
}

// sampleKey is the merge identity of a sample: full series name plus the
// exact label rendering.
func sampleKey(s PromSample) string {
	return s.Name + labelString(s.Labels)
}

// MergeFamilies folds src into dst and returns dst: samples with the
// same series name and label set have their values summed (counters
// accumulate; histogram _bucket/_sum/_count series are counters, so
// histograms merge bucket-wise), new samples and families are appended
// in first-seen order. Gauges sum too — the fleet view of `workers` or
// `cache_entries` is the total across backends — so gauges that are
// ratios should be recomputed from merged counters rather than read off
// the merged exposition. dst's samples are mutated in place.
func MergeFamilies(dst, src []*MetricFamily) []*MetricFamily {
	byName := make(map[string]*MetricFamily, len(dst))
	for _, f := range dst {
		byName[f.Name] = f
	}
	for _, sf := range src {
		df, ok := byName[sf.Name]
		if !ok {
			cp := &MetricFamily{Name: sf.Name, Help: sf.Help, Type: sf.Type,
				Samples: append([]PromSample(nil), sf.Samples...)}
			byName[sf.Name] = cp
			dst = append(dst, cp)
			continue
		}
		if df.Help == "" {
			df.Help = sf.Help
		}
		idx := make(map[string]int, len(df.Samples))
		for i, s := range df.Samples {
			idx[sampleKey(s)] = i
		}
		for _, s := range sf.Samples {
			if i, ok := idx[sampleKey(s)]; ok {
				df.Samples[i].Value += s.Value
			} else {
				idx[sampleKey(s)] = len(df.Samples)
				df.Samples = append(df.Samples, s)
			}
		}
	}
	return dst
}

// FindFamily returns the family with the given name, or nil.
func FindFamily(fams []*MetricFamily, name string) *MetricFamily {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return nil
}
