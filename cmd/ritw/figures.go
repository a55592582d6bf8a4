package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ritw/internal/geo"
	"ritw/internal/measure"
	"ritw/internal/plot"
)

// writePlot saves an SVG under -plotdir (no-op when the flag is unset).
func writePlot(name, svg string) error {
	if *plotDir == "" {
		return nil
	}
	if err := os.MkdirAll(*plotDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*plotDir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// plotFig2 renders the box plot of queries-to-probe-all.
func plotFig2(srcs map[string]*source) error {
	var groups []plot.BoxGroup
	for _, combo := range measure.Table1() {
		res := srcs[combo.ID].agg.ProbeAll()
		groups = append(groups, plot.BoxGroup{
			Label: fmt.Sprintf("%s (%.1f%%)", res.ComboID, res.PercentAll),
			Box:   res.Box,
		})
	}
	return writePlot("fig2_probe_all.svg",
		plot.BoxChart("Queries to probe all authoritatives, after the first query",
			"# of queries after first query", groups))
}

// plotFig3 renders share-vs-RTT bars for every combination.
func plotFig3(srcs map[string]*source) error {
	for _, combo := range measure.Table1() {
		var bars []plot.ShareRTTBar
		for _, s := range srcs[combo.ID].agg.ShareVsRTT() {
			bars = append(bars, plot.ShareRTTBar{Label: s.Site, Share: s.Share, MedianRTT: s.MedianRTT})
		}
		svg := plot.ShareRTTChart("Query share and median RTT — "+combo.ID, bars)
		if err := writePlot(fmt.Sprintf("fig3_share_%s.svg", combo.ID), svg); err != nil {
			return err
		}
	}
	return nil
}

// plotFig4 renders the sorted per-recursive preference curves for the
// two-site combinations, one chart per combination with the EU curves.
func plotFig4(srcs map[string]*source) error {
	for _, id := range []string{"2A", "2B", "2C"} {
		p := srcs[id].agg.Preference()
		var series []plot.Series
		for _, site := range srcs[id].sum.Sites {
			fracs := p.Curves[geo.Europe][site]
			xs := make([]float64, len(fracs))
			for i := range fracs {
				xs[i] = float64(i)
			}
			series = append(series, plot.Series{Name: site + " (EU)", X: xs, Y: fracs})
		}
		svg := plot.LineChart(
			fmt.Sprintf("Per-recursive query fraction — %s (weak %.0f%%, strong %.0f%%)",
				id, 100*p.WeakFrac, 100*p.StrongFrac),
			"recursives (sorted)", "fraction of queries", series, 0, 1)
		if err := writePlot(fmt.Sprintf("fig4_preference_%s.svg", id), svg); err != nil {
			return err
		}
	}
	return nil
}

// plotFig5 renders the RTT-sensitivity scatter of 2B.
func plotFig5(srcs map[string]*source) error {
	var points []plot.ScatterPoint
	sites := srcs["2B"].sum.Sites
	for _, p := range srcs["2B"].agg.RTTSensitivity() {
		color := 0
		if p.Site == sites[1] {
			color = 1
		}
		points = append(points, plot.ScatterPoint{
			X: p.MedianRTT, Y: p.Fraction,
			Label: fmt.Sprintf("%s/%s", p.Continent, p.Site), Color: color,
		})
	}
	return writePlot("fig5_rtt_sensitivity.svg",
		plot.ScatterChart("RTT sensitivity of 2B", "median RTT (ms)", "fraction of queries", points, 0, 1))
}

// plotFig6 renders the interval sweep as one line per continent.
func plotFig6(srcs []*source) error {
	byCont := map[geo.Continent]plot.Series{}
	for _, src := range srcs {
		shares := src.agg.SiteShareByContinent("FRA")
		for _, cont := range geo.Continents() {
			s := byCont[cont]
			s.Name = cont.String()
			s.X = append(s.X, src.sum.Interval.Minutes())
			s.Y = append(s.Y, shares[cont])
			byCont[cont] = s
		}
	}
	var series []plot.Series
	for _, cont := range geo.Continents() {
		series = append(series, byCont[cont])
	}
	return writePlot("fig6_interval_sweep.svg",
		plot.LineChart("Fraction of queries to FRA (2C) vs probing interval",
			"query interval (minutes)", "fraction of queries", series, 0, 1))
}

// plotFig7 renders the rank bands of a production trace from its
// per-recursive per-server counts: the per-rank shares of up to 40
// sampled busy recursives, one stacked column each, sorted by
// top-share.
func plotFig7(name, title string, per map[string]map[string]int, minQueries int) error {
	type recBands struct {
		top    float64
		shares []float64
	}
	var recs []recBands
	for _, byServer := range per {
		total := 0
		var counts []int
		for _, n := range byServer {
			total += n
			counts = append(counts, n)
		}
		if total < minQueries {
			continue
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		shares := make([]float64, len(counts))
		for i, n := range counts {
			shares[i] = float64(n) / float64(total)
		}
		recs = append(recs, recBands{top: shares[0], shares: shares})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].top > recs[j].top })
	if len(recs) > 40 {
		// Sample evenly across the sorted population.
		sampled := make([]recBands, 0, 40)
		for i := 0; i < 40; i++ {
			sampled = append(sampled, recs[i*len(recs)/40])
		}
		recs = sampled
	}
	bands := make([]plot.Band, len(recs))
	for i, r := range recs {
		bands[i] = plot.Band{Label: "", Shares: r.shares}
	}
	return writePlot(name, plot.BandChart(title, bands))
}
