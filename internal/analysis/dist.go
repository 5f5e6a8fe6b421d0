package analysis

import (
	"sort"

	"smartusage/internal/sketch"
	"smartusage/internal/stats"
)

// Dist is one figure's value distribution: association hours, daily volumes.
// Whether it keeps every value (exact mode) or a mergeable quantile sketch
// (core.Options.SketchMode) is fixed at construction, and Dist is the only
// analysis type that knows which: the analyzers fold each device's stream the
// same way in both modes and hand the folded values to a Dist.
//
// Exact mode keeps a []float64, sorted by finish so results do not depend on
// merge or map order. Sketch mode keeps a *sketch.Quantile with
// DefaultQuantileConfig: fixed-size, integer-only state, so shard merges
// commute exactly and quantile-derived statistics carry the sketch's ~1%
// relative error (DESIGN.md "Sketch-based analysis").
type Dist struct {
	vals []float64
	q    *sketch.Quantile
}

// newDist returns an empty distribution in exact or sketch mode.
func newDist(sketched bool) *Dist {
	if sketched {
		return &Dist{q: sketch.NewQuantile(sketch.DefaultQuantileConfig())}
	}
	return &Dist{}
}

// Add records one value.
func (d *Dist) Add(v float64) {
	if d.q != nil {
		d.q.Add(v)
		return
	}
	d.vals = append(d.vals, v)
}

// merge folds o, built in the same mode, into d.
func (d *Dist) merge(o *Dist) {
	if d.q == nil {
		d.vals = append(d.vals, o.vals...)
		return
	}
	// Every sketched Dist shares DefaultQuantileConfig, so a mismatch is a
	// programmer error.
	if err := d.q.Merge(o.q); err != nil {
		panic(err)
	}
}

// finish sorts the exact values; the accessors below read a finished Dist.
func (d *Dist) finish() {
	sort.Float64s(d.vals)
}

// Count returns the number of values.
func (d *Dist) Count() int {
	if d.q != nil {
		return int(d.q.Count())
	}
	return len(d.vals)
}

// Quantile returns the p-th quantile (stats.Quantile's convention), or 0
// when the distribution is empty.
func (d *Dist) Quantile(p float64) float64 {
	if d.q != nil {
		return d.q.Quantile(p)
	}
	return stats.QuantilesSorted(d.vals, p)[0]
}

// Mean returns the mean value, or 0 when the distribution is empty.
func (d *Dist) Mean() float64 {
	if d.q != nil {
		return d.q.Mean()
	}
	return stats.Mean(d.vals)
}

// CCDF returns the empirical complementary CDF P[v > X]. In sketch mode it
// has one point per non-empty bin.
func (d *Dist) CCDF() stats.Distribution {
	if d.q == nil {
		return stats.CCDF(d.vals)
	}
	n := d.q.Count()
	if n == 0 {
		return stats.Distribution{}
	}
	pts := make([]stats.Point, 0, 64)
	var cum uint64
	d.q.Each(func(v float64, c uint64) {
		cum += c
		pts = append(pts, stats.Point{X: v, Y: 1 - float64(cum)/float64(n)})
	})
	return stats.Distribution{Points: pts}
}

// Values returns the sorted raw values, or nil in sketch mode.
func (d *Dist) Values() []float64 { return d.vals }
