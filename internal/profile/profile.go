// Package profile turns the simulation meter's per-function cost
// attribution into the leaf-function execution profiles of the paper's
// analysis: the flat cycle distributions of Fig. 1, the before/after
// mitigation comparison of Fig. 3, the category coloring of Fig. 4, and
// the execution-time breakdowns of Figs. 5 and 15.
//
// A profile is made one way, FromMeter, which sums Total, Frac and Cum
// in the meter's hottest-first row order, so a profile is a pure
// function of what the meter was charged.
package profile

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Entry is one leaf function's share of execution, and the row of a
// /profilez?format=json document's top list.
type Entry struct {
	Name     string       `json:"name"`
	Category sim.Category `json:"category"`
	Cycles   float64      `json:"cycles"`
	Frac     float64      `json:"frac"` // fraction of total cycles
	Cum      float64      `json:"cum"`  // cumulative fraction up to and including this entry
}

// Profile is a leaf-function execution profile sorted hottest-first.
type Profile struct {
	Entries []Entry
	Total   float64
}

// RowKey is a row's one spelling as a key, "name [category]": the row
// label of Figs. 3 and 4 and the key of a benchmark record's
// sim_fn_cycles.
func RowKey(name string, c sim.Category) string { return name + " [" + c.String() + "]" }

// FromMeter builds the profile of the meter's current attribution.
// Functions yields one row per (function, category), sorted by cycles
// descending, then name, then category, and Total, Frac and Cum are
// summed in that order. Float addition is not associative, so any other
// order — a map's, say — would move the last bits of Total and, with
// them, every share; in this one Total is the meter's TotalCycles.
func FromMeter(mt *sim.Meter) Profile {
	fns := mt.Functions()
	p := Profile{Entries: make([]Entry, len(fns))}
	for i, f := range fns {
		p.Entries[i] = Entry{Name: f.Name, Category: f.Category, Cycles: f.Cycles(&mt.Model)}
		p.Total += p.Entries[i].Cycles
	}
	cum := 0.0
	for i := range p.Entries {
		if p.Total > 0 {
			p.Entries[i].Frac = p.Entries[i].Cycles / p.Total
		}
		cum += p.Entries[i].Frac
		p.Entries[i].Cum = cum
	}
	return p
}

// HottestFrac returns the hottest function's share (Fig. 1: ~10–12% for
// the PHP applications, far higher for SPECWeb).
func (p Profile) HottestFrac() float64 {
	if len(p.Entries) == 0 {
		return 0
	}
	return p.Entries[0].Frac
}

// FuncsForFrac returns how many of the hottest functions are needed to
// cover the given fraction of cycles (Fig. 1: ~100 functions for 65%).
func (p Profile) FuncsForFrac(target float64) int {
	for i, e := range p.Entries {
		if e.Cum >= target {
			return i + 1
		}
	}
	return len(p.Entries)
}

// Headline is a profile's Fig. 1 numbers, read one way for every
// surface: /profilez, the figures and the text table.
type Headline struct {
	Total       float64 // cycles in the profile
	Functions   int     // distinct leaf functions
	Hottest     string  // the hottest function's name; empty for an empty profile
	HottestFrac float64 // its share of Total
	FuncsFor65  int     // hottest functions covering 65% of Total
}

// Headline returns the profile's Fig. 1 numbers; an empty profile has
// zero for each and no hottest function.
func (p Profile) Headline() Headline {
	h := Headline{Total: p.Total, Functions: p.NumFunctions(), HottestFrac: p.HottestFrac(), FuncsFor65: p.FuncsForFrac(0.65)}
	if h.Functions > 0 {
		h.Hottest = p.Entries[0].Name
	}
	return h
}

// String is the headline's one-line form, the first line of Render.
func (h Headline) String() string {
	return fmt.Sprintf("hottest: %s %.2f%%   functions for 65%%: %d of %d   total cycles: %.0f",
		cmp.Or(h.Hottest, "-"), 100*h.HottestFrac, h.FuncsFor65, h.Functions, h.Total)
}

// CDF returns the cumulative fraction covered by the hottest n functions
// for each n in ns.
func (p Profile) CDF(ns []int) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		if n <= 0 {
			continue
		}
		if n > len(p.Entries) {
			n = len(p.Entries)
		}
		if n > 0 {
			out[i] = p.Entries[n-1].Cum
		}
	}
	return out
}

// Landmarks are the function counts the text and JSON renderings report
// the cumulative distribution at (the Fig. 1 x-axis landmarks).
var Landmarks = []int{1, 10, 50, 100}

// CategoryShares returns each activity category's share of total cycles
// (Figs. 4 and 5).
func (p Profile) CategoryShares() map[sim.Category]float64 {
	out := make(map[sim.Category]float64)
	for _, e := range p.Entries {
		out[e.Category] += e.Frac
	}
	return out
}

// TopN returns the hottest n entries; n <= 0 returns every entry. The
// result is a copy: callers may sort or mutate it without silently
// reordering the profile.
func (p Profile) TopN(n int) []Entry {
	if n <= 0 || n > len(p.Entries) {
		n = len(p.Entries)
	}
	return append([]Entry(nil), p.Entries[:n]...)
}

// NumFunctions returns the number of distinct leaf functions.
func (p Profile) NumFunctions() int { return len(p.Entries) }

// Render is the one text rendering of a profile, which /profilez,
// phpi -profile and the quickstart print: the headline, the cumulative
// share at each of the Landmarks, the category shares, and the hottest
// n functions as an aligned table (every function when n <= 0).
func (p Profile) Render(n int) string {
	var b strings.Builder
	fmt.Fprintln(&b, p.Headline())
	b.WriteString("cdf:")
	for i, share := range p.CDF(Landmarks) {
		fmt.Fprintf(&b, " top%d=%.1f%%", Landmarks[i], 100*share)
	}
	b.WriteString("\ncategories:")
	shares := p.CategoryShares()
	for _, c := range sim.Categories() {
		if shares[c] > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", c, 100*shares[c])
		}
	}
	fmt.Fprintf(&b, "\n\n%-34s %-10s %8s %8s\n", "function", "category", "frac%", "cum%")
	for _, e := range p.TopN(n) {
		fmt.Fprintf(&b, "%-34s %-10s %8.2f %8.2f\n", e.Name, e.Category, 100*e.Frac, 100*e.Cum)
	}
	return b.String()
}

// Folded renders the flat profile as folded stacks — one
// "category;function cycles" line per entry, hottest first — so a
// /profilez scrape feeds flamegraph.pl / speedscope directly. The
// category is the root frame, which makes the flame's first tier the
// paper's Fig. 4 breakdown.
func (p Profile) Folded() string {
	var b strings.Builder
	for _, e := range p.Entries {
		name := strings.ReplaceAll(e.Name, ";", ":")
		name = strings.ReplaceAll(name, " ", "_")
		fmt.Fprintf(&b, "%s;%s %.0f\n", e.Category, name, e.Cycles)
	}
	return b.String()
}

// Diff compares two profiles by function name (Fig. 3's before/after
// mitigation bars). Functions absent from one side report zero.
type DiffEntry struct {
	Name       string
	Category   sim.Category
	BeforeFrac float64
	AfterFrac  float64
}

// Diff returns per-function fraction changes sorted by before-share.
func Diff(before, after Profile) []DiffEntry {
	idx := map[string]*DiffEntry{}
	var order []string
	for _, e := range before.Entries {
		idx[e.Name] = &DiffEntry{Name: e.Name, Category: e.Category, BeforeFrac: e.Frac}
		order = append(order, e.Name)
	}
	for _, e := range after.Entries {
		d := idx[e.Name]
		if d == nil {
			d = &DiffEntry{Name: e.Name, Category: e.Category}
			idx[e.Name] = d
			order = append(order, e.Name)
		}
		d.AfterFrac = e.Frac
	}
	out := make([]DiffEntry, 0, len(order))
	for _, name := range order {
		out = append(out, *idx[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].BeforeFrac > out[j].BeforeFrac })
	return out
}
