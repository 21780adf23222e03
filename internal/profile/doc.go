package profile

import (
	"strconv"
	"time"

	"repro/internal/sim"
)

// Doc is the /profilez?format=json wire shape, declared once for both
// ends: phpserve encodes NewDoc, the router's fleet scrape decodes the
// same type and rebuilds the backend's profile with Profile.
type Doc struct {
	App           string             `json:"app"`
	Config        string             `json:"config"`
	WindowSince   string             `json:"window_since"`
	WindowUntil   string             `json:"window_until"`
	WindowEpochs  int                `json:"window_epochs"`
	SinceBoot     bool               `json:"since_boot"`
	TotalCycles   float64            `json:"total_cycles"`
	Functions     int                `json:"functions"`
	HottestFrac   float64            `json:"hottest_frac"`
	FuncsFor65    int                `json:"funcs_for_65"`
	CDF           map[string]float64 `json:"cdf"`
	CategoryShare map[string]float64 `json:"category_share"`
	Top           []docEntry         `json:"top"`
}

// docEntry is one function's row of Doc.Top.
type docEntry struct {
	Name     string  `json:"name"`
	Category string  `json:"category"`
	Cycles   float64 `json:"cycles"`
	Frac     float64 `json:"frac"`
	Cum      float64 `json:"cum"`
}

// NewDoc renders the window profile p of the named server: headline
// numbers, the cumulative share at each function count in cdfAt, the
// category shares, and the hottest n rows — every function when n <= 0,
// which is how a fleet scraper asks for the complete profile.
func NewDoc(app, config string, p Profile, info WindowInfo, cdfAt []int, n int) Doc {
	d := Doc{
		App:           app,
		Config:        config,
		WindowSince:   info.Since.UTC().Format(time.RFC3339Nano),
		WindowUntil:   info.Until.UTC().Format(time.RFC3339Nano),
		WindowEpochs:  info.Epochs,
		SinceBoot:     info.SinceBoot,
		TotalCycles:   p.Total,
		Functions:     p.NumFunctions(),
		HottestFrac:   p.HottestFrac(),
		FuncsFor65:    p.FuncsForFrac(0.65),
		CDF:           map[string]float64{},
		CategoryShare: map[string]float64{},
	}
	for i, share := range p.CDF(cdfAt) {
		d.CDF[strconv.Itoa(cdfAt[i])] = share
	}
	for c, share := range p.CategoryShares() {
		d.CategoryShare[c.String()] = share
	}
	for _, e := range p.TopN(n) {
		d.Top = append(d.Top, docEntry{e.Name, e.Category.String(), e.Cycles, e.Frac, e.Cum})
	}
	return d
}

// Profile rebuilds the profile from the doc's rows — the sender's whole
// window when the doc was requested with n=0. Unknown category names
// fold into CatOther rather than failing: profiles merge by cycles, and
// a version-skewed backend's new category should not blind the fleet
// view.
func (d Doc) Profile() Profile {
	raw := make([]RawEntry, 0, len(d.Top))
	for _, e := range d.Top {
		cat, _ := sim.CategoryByName(e.Category)
		raw = append(raw, RawEntry{Name: e.Name, Category: cat, Cycles: e.Cycles})
	}
	return FromCycles(raw)
}
