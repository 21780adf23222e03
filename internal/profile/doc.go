package profile

import "strconv"

// Doc is the /profilez?format=json wire shape, which phpserve encodes
// from NewDoc.
type Doc struct {
	App           string             `json:"app"`
	Config        string             `json:"config"`
	TotalCycles   float64            `json:"total_cycles"`
	Functions     int                `json:"functions"`
	HottestFrac   float64            `json:"hottest_frac"`
	FuncsFor65    int                `json:"funcs_for_65"`
	CDF           map[string]float64 `json:"cdf"`
	CategoryShare map[string]float64 `json:"category_share"`
	Top           []Entry            `json:"top"`
}

// NewDoc renders the profile p of the named server: headline numbers,
// the cumulative share at each function count in cdfAt, the category
// shares, and the hottest n rows — every function when n <= 0.
func NewDoc(app, config string, p Profile, cdfAt []int, n int) Doc {
	h := p.Headline()
	d := Doc{
		App:           app,
		Config:        config,
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
