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

// Prometheus text-format parsing — the read side of the Encoder in
// prom.go, for a reader of a server's /metrics.

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
				if !validName(fields[2], true) {
					return nil, fmt.Errorf("obs: prom parse line %d: bad metric name %q", lineNo, fields[2])
				}
				f := family(fields[2], "untyped")
				if fields[1] == "TYPE" && len(fields) >= 4 {
					f.Type = strings.TrimSpace(fields[3])
					cur = f
				} else if fields[1] == "HELP" {
					if len(fields) >= 4 {
						f.Help = helpUnescaper.Replace(fields[3])
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

// helpUnescaper undoes escapeHelp: a HELP text spells backslash and
// newline as \\ and \n.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

// parseSampleLine parses `name{a="b",...} value [timestamp]`.
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else if !validName(rest[:i], true) {
		return s, fmt.Errorf("bad metric name in %q", line)
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
		if !validName(name, false) {
			return 0, nil, fmt.Errorf("bad label name %q in %q", name, s)
		}
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

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, with colon false, a label name (the same without colons).
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || colon && c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
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
