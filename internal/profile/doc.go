package profile

import (
	"strconv"
	"time"
)

// Doc is the /profilez?format=json wire shape, which phpserve encodes
// from NewDoc.
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
	Top           []Entry            `json:"top"`
}

// NewDoc renders the window profile p of the named server: headline
// numbers, the cumulative share at each function count in cdfAt, the
// category shares, and the hottest n rows — every function when n <= 0.
func NewDoc(app, config string, p Profile, info WindowInfo, cdfAt []int, n int) Doc {
	h := p.Headline()
	d := Doc{
		App:           app,
		Config:        config,
		WindowSince:   info.Since.UTC().Format(time.RFC3339Nano),
		WindowUntil:   info.Until.UTC().Format(time.RFC3339Nano),
		WindowEpochs:  info.Epochs,
		SinceBoot:     info.SinceBoot,
		TotalCycles:   h.Total,
		Functions:     h.Functions,
		HottestFrac:   h.HottestFrac,
		FuncsFor65:    h.FuncsFor65,
		CDF:           map[string]float64{},
		CategoryShare: map[string]float64{},
		Top:           p.TopN(n),
	}
	for i, share := range p.CDF(cdfAt) {
		d.CDF[strconv.Itoa(cdfAt[i])] = share
	}
	for c, share := range p.CategoryShares() {
		d.CategoryShare[c.String()] = share
	}
	return d
}
