package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
)

// fetch GETs target from addr over a fresh connection.
func fetch(addr, target string) ([]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	resp, err := c.get(target)
	if err != nil {
		return nil, fmt.Errorf("GET %s%s: %w", addr, target, err)
	}
	if resp.status != 200 {
		return nil, fmt.Errorf("GET %s%s: status %d", addr, target, resp.status)
	}
	return append([]byte(nil), resp.body...), nil
}

// serverStats is the slice of phpserve's /stats the benchmark reads.
type serverStats struct {
	Requests          int64              `json:"requests"`
	ShedOverload      int64              `json:"shed_overload"`
	ShedTimeout       int64              `json:"shed_timeout"`
	ShedCanceled      int64              `json:"shed_canceled"`
	ShedDraining      int64              `json:"shed_draining"`
	SimCycles         float64            `json:"sim_cycles"`
	SimEnergyPJ       float64            `json:"sim_energy_pj"`
	SimCategoryCycles map[string]float64 `json:"sim_category_cycles"`
	Cache             *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

func (s serverStats) shed() int64 {
	return s.ShedOverload + s.ShedTimeout + s.ShedCanceled + s.ShedDraining
}

// scrape is one moment of the fleet as its own endpoints report it:
// every phpserve's /stats and /metrics, and the router's /metrics.
type scrape struct {
	stats   []serverStats
	metrics [][]*obs.MetricFamily // per phpserve
	router  []*obs.MetricFamily   // nil without a router
}

func scrapeFleet(f *fleet) (scrape, error) {
	var s scrape
	for _, p := range f.serve {
		addr := p.addr
		raw, err := fetch(addr, "/stats")
		if err != nil {
			return s, err
		}
		var st serverStats
		if err := json.Unmarshal(raw, &st); err != nil {
			return s, fmt.Errorf("%s/stats: %w", addr, err)
		}
		s.stats = append(s.stats, st)
		fams, err := fetchMetrics(addr)
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, fams)
	}
	if f.router != nil {
		fams, err := fetchMetrics(f.front)
		if err != nil {
			return s, err
		}
		s.router = fams
	}
	return s, nil
}

func fetchMetrics(addr string) ([]*obs.MetricFamily, error) {
	raw, err := fetch(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParsePromText(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", addr, err)
	}
	return fams, nil
}

// hist sums the named histogram over every phpserve of the scrape.
func (s scrape) hist(name string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, fams := range s.metrics {
		h := obs.FindFamily(fams, name).Histogram()
		out.Sum += h.Sum
		out.Count += h.Count
	}
	return out
}

// gaugeWeighted averages a per-process gauge over the phpserve
// processes, weighting each by the requests it served between prev and
// s (the window the gauge itself covers).
func (s scrape) gaugeWeighted(prev scrape, name string) float64 {
	var sum, weight float64
	for i, fams := range s.metrics {
		w := float64(s.stats[i].Requests - prev.stats[i].Requests)
		sum += w * obs.FindFamily(fams, name).Sum()
		weight += w
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// shedTotal sums the shed counters of every server process.
func (s scrape) shedTotal() float64 {
	var n float64
	for _, st := range s.stats {
		n += float64(st.shed())
	}
	return n + obs.FindFamily(s.router, "phprouter_shed_total").Sum()
}

func findHist(fams []*obs.MetricFamily, name string) obs.HistogramSnapshot {
	return obs.FindFamily(fams, name).Histogram()
}
