package analysis

import (
	"math"

	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// MB converts bytes to megabytes (10^6 bytes, the paper's unit).
func MB(b uint64) float64 { return float64(b) / 1e6 }

// volumeFloor is the paper's inclusion threshold for daily-volume CDFs
// ("we omitted users that downloaded less than 0.1MB", §3.2).
const volumeFloor = 0.1 // MB

// DailyVolumes holds the per-user-day volume distributions (MB), the raw
// material of Figs. 3-4. Excluded (cleaned) days are omitted.
type DailyVolumes struct {
	// AllRX/AllTX include every user-day whose download total reaches the
	// 0.1 MB floor.
	AllRX, AllTX *Dist
	// Interface-specific volumes, conditioned on the interface moving any
	// bytes that day.
	CellRX, CellTX *Dist
	WiFiRX, WiFiTX *Dist
	// ZeroCellFrac/ZeroWiFiFrac are the fractions of user-days whose
	// interface moved no bytes at all (§3.2: 8% cellular, 20% WiFi).
	ZeroCellFrac float64
	ZeroWiFiFrac float64
	// MaxRXMB is the heaviest observed day (the paper's top heavy hitter
	// downloaded 11 GB in one day).
	MaxRXMB float64
}

// VolumeStats is one year's row of Table 3: median and mean daily download
// volume per user (MB/day), overall and per interface.
type VolumeStats struct {
	Year                              int
	MedianAll, MedianCell, MedianWiFi float64
	MeanAll, MeanCell, MeanWiFi       float64
}

// volDayState is one device's current-day partial aggregate, flushed when
// its stream advances to the next day.
type volDayState struct {
	day            int
	cellRX, cellTX uint64
	wifiRX, wifiTX uint64
}

// Volumes is the source of Figs. 3-4 and the Table 3 per-year row: it folds
// each device's time-ordered stream into per-user-day totals and flushes a
// day into the distributions when the stream advances to the next one. As a
// cleaned analyzer it sees exactly the samples whose user-days survive
// cleaning (tethered intervals and update-day excision), so its user-days
// are the prepass's non-Excluded UserDays.
type Volumes struct {
	meta     Meta
	sketched bool
	cur      map[trace.DeviceID]*volDayState

	dv DailyVolumes
	// statsCell and statsWiFi are Table 3's interface columns: gated on the
	// overall 0.1 MB floor, interface-zero days included (a WiFi median
	// below the cellular median in 2013 requires counting non-WiFi days).
	statsCell, statsWiFi *Dist

	total, zeroCell, zeroWiFi uint64
}

// NewVolumes returns an empty volume accumulator; sketched selects
// sketch-mode distributions (see Dist).
func NewVolumes(meta Meta, sketched bool) *Volumes {
	return &Volumes{
		meta:     meta,
		sketched: sketched,
		cur:      make(map[trace.DeviceID]*volDayState),
		dv: DailyVolumes{
			AllRX: newDist(sketched), AllTX: newDist(sketched),
			CellRX: newDist(sketched), CellTX: newDist(sketched),
			WiFiRX: newDist(sketched), WiFiTX: newDist(sketched),
		},
		statsCell: newDist(sketched),
		statsWiFi: newDist(sketched),
	}
}

// Add implements Analyzer. Samples of one device must arrive in time order.
func (v *Volumes) Add(s *trace.Sample) {
	day := v.meta.Day(s.Time)
	st := v.cur[s.Device]
	if st == nil {
		st = &volDayState{day: day}
		v.cur[s.Device] = st
	} else if st.day != day {
		v.flush(st)
		*st = volDayState{day: day}
	}
	st.cellRX += s.CellRX
	st.cellTX += s.CellTX
	st.wifiRX += s.WiFiRX
	st.wifiTX += s.WiFiTX
}

// flush folds one completed user-day into the distributions.
func (v *Volumes) flush(st *volDayState) {
	v.total++
	if st.cellRX+st.cellTX == 0 {
		v.zeroCell++
	} else {
		v.dv.CellRX.Add(MB(st.cellRX))
		v.dv.CellTX.Add(MB(st.cellTX))
	}
	if st.wifiRX+st.wifiTX == 0 {
		v.zeroWiFi++
	} else {
		v.dv.WiFiRX.Add(MB(st.wifiRX))
		v.dv.WiFiTX.Add(MB(st.wifiTX))
	}
	rx := MB(st.cellRX + st.wifiRX)
	if rx >= volumeFloor {
		v.dv.AllRX.Add(rx)
		v.dv.AllTX.Add(MB(st.cellTX + st.wifiTX))
		v.statsCell.Add(MB(st.cellRX))
		v.statsWiFi.Add(MB(st.wifiRX))
	}
	if rx > v.dv.MaxRXMB {
		v.dv.MaxRXMB = rx
	}
}

// NewShard implements ShardedAnalyzer.
func (v *Volumes) NewShard() Analyzer { return NewVolumes(v.meta, v.sketched) }

// Merge implements ShardedAnalyzer: device-disjoint transient state unions,
// counters add, distributions merge, the maximum is order-insensitive.
func (v *Volumes) Merge(shard Analyzer) {
	o := shard.(*Volumes)
	for dev, st := range o.cur {
		v.cur[dev] = st
	}
	od := o.dists()
	for i, d := range v.dists() {
		d.merge(od[i])
	}
	v.total += o.total
	v.zeroCell += o.zeroCell
	v.zeroWiFi += o.zeroWiFi
	if o.dv.MaxRXMB > v.dv.MaxRXMB {
		v.dv.MaxRXMB = o.dv.MaxRXMB
	}
}

// dists lists every distribution the accumulator feeds.
func (v *Volumes) dists() [8]*Dist {
	return [8]*Dist{
		v.dv.AllRX, v.dv.AllTX, v.dv.CellRX, v.dv.CellTX,
		v.dv.WiFiRX, v.dv.WiFiTX, v.statsCell, v.statsWiFi,
	}
}

// Result flushes the in-flight user-days and finalizes Figs. 3-4's
// distributions and Table 3's row.
func (v *Volumes) Result() (DailyVolumes, VolumeStats) {
	for dev, st := range v.cur {
		v.flush(st)
		delete(v.cur, dev)
	}
	for _, d := range v.dists() {
		d.finish()
	}
	dv := v.dv
	if v.total > 0 {
		dv.ZeroCellFrac = float64(v.zeroCell) / float64(v.total)
		dv.ZeroWiFiFrac = float64(v.zeroWiFi) / float64(v.total)
	}
	vs := VolumeStats{
		Year:       v.meta.Year,
		MedianAll:  dv.AllRX.Quantile(0.5),
		MedianCell: v.statsCell.Quantile(0.5),
		MedianWiFi: v.statsWiFi.Quantile(0.5),
		MeanAll:    dv.AllRX.Mean(),
		MeanCell:   v.statsCell.Mean(),
		MeanWiFi:   v.statsWiFi.Mean(),
	}
	return dv, vs
}

// GrowthTable is Table 3: per-year medians/means plus annual growth rates
// from linear fits.
type GrowthTable struct {
	Years []VolumeStats
	// AGRs in the Table 3 order: median All/Cell/WiFi, mean All/Cell/WiFi.
	AGRMedianAll, AGRMedianCell, AGRMedianWiFi float64
	AGRMeanAll, AGRMeanCell, AGRMeanWiFi       float64
}

// Growth assembles Table 3 from per-year volume statistics (in year order).
func Growth(years []VolumeStats) (GrowthTable, error) {
	g := GrowthTable{Years: years}
	pick := func(f func(VolumeStats) float64) []float64 {
		out := make([]float64, len(years))
		for i, y := range years {
			out[i] = f(y)
		}
		return out
	}
	var err error
	if g.AGRMedianAll, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MedianAll })); err != nil {
		return g, err
	}
	if g.AGRMedianCell, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MedianCell })); err != nil {
		return g, err
	}
	if g.AGRMedianWiFi, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MedianWiFi })); err != nil {
		return g, err
	}
	if g.AGRMeanAll, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MeanAll })); err != nil {
		return g, err
	}
	if g.AGRMeanCell, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MeanCell })); err != nil {
		return g, err
	}
	if g.AGRMeanWiFi, err = stats.AnnualGrowthRate(pick(func(v VolumeStats) float64 { return v.MeanWiFi })); err != nil {
		return g, err
	}
	return g, nil
}

// UserTypes is the Fig. 5 analysis: the cellular-vs-WiFi heat map of daily
// volumes plus the user typology of §3.3.1.
type UserTypes struct {
	// Grid bins user-days by (log10 cellular MB, log10 WiFi MB) over
	// [-2, 3] on both axes.
	Grid           *stats.Grid
	GridLo, GridHi float64

	// Fractions of users (not user-days) per type.
	CellularIntensiveFrac float64
	WiFiIntensiveFrac     float64
	MixedFrac             float64
	// MixedAboveDiagonal is the share of mixed users' user-day points
	// whose WiFi download exceeds the cellular download (offloading
	// evidence; 55% in the paper's Fig. 5 framing).
	MixedAboveDiagonal float64
}

// intensityShareFloor: an interface carrying under 2% of a user's download
// marks the user as intensive on the other interface.
const intensityShareFloor = 0.02

// UserTypes computes Fig. 5 from the prepass aggregates.
func (p *Prep) UserTypes() UserTypes {
	const gridN = 50
	ut := UserTypes{Grid: stats.NewGrid(gridN, gridN), GridLo: -2, GridHi: 3}
	scale := float64(gridN) / (ut.GridHi - ut.GridLo)

	type tot struct{ cell, wifi uint64 }
	users := make(map[trace.DeviceID]*tot)
	for _, ud := range p.UserDays {
		if ud.Excluded {
			continue
		}
		t := users[ud.Device]
		if t == nil {
			t = &tot{}
			users[ud.Device] = t
		}
		t.cell += ud.CellRX
		t.wifi += ud.WiFiRX

		if ud.TotalRX() >= uint64(volumeFloor*1e6) {
			x := int((math.Log10(math.Max(MB(ud.CellRX), 1e-2)) - ut.GridLo) * scale)
			y := int((math.Log10(math.Max(MB(ud.WiFiRX), 1e-2)) - ut.GridLo) * scale)
			ut.Grid.Add(x, y)
		}
	}

	intensity := make(map[trace.DeviceID]int) // 0 cell, 1 wifi, 2 mixed
	var nCell, nWiFi, nMixed int
	for dev, t := range users {
		total := t.cell + t.wifi
		if total == 0 {
			continue
		}
		wifiShare := float64(t.wifi) / float64(total)
		switch {
		case wifiShare < intensityShareFloor:
			nCell++
			intensity[dev] = 0
		case wifiShare > 1-intensityShareFloor:
			nWiFi++
			intensity[dev] = 1
		default:
			nMixed++
			intensity[dev] = 2
		}
	}
	n := nCell + nWiFi + nMixed
	if n > 0 {
		ut.CellularIntensiveFrac = float64(nCell) / float64(n)
		ut.WiFiIntensiveFrac = float64(nWiFi) / float64(n)
		ut.MixedFrac = float64(nMixed) / float64(n)
	}
	// Above-diagonal share over mixed users' user-day points.
	var mixedDays, aboveDays int
	for _, ud := range p.UserDays {
		if ud.Excluded || intensity[ud.Device] != 2 || ud.TotalRX() < uint64(volumeFloor*1e6) {
			continue
		}
		mixedDays++
		if ud.WiFiRX > ud.CellRX {
			aboveDays++
		}
	}
	if mixedDays > 0 {
		ut.MixedAboveDiagonal = float64(aboveDays) / float64(mixedDays)
	}
	return ut
}

// Overview is Table 1: panel composition and the LTE share of cellular
// download traffic.
type Overview struct {
	Year       int
	NumAndroid int
	NumIOS     int
	Total      int
	// LTEShare is LTE download volume / total cellular download volume.
	LTEShare float64
	// WiFiShare is the WiFi fraction of all download traffic (59% in 2013
	// → 67% in 2015, §3.1).
	WiFiShare float64
}

// Overview computes Table 1 from the prepass aggregates.
func (p *Prep) Overview() Overview {
	o := Overview{Year: p.Meta.Year}
	for _, os := range p.Devices {
		if os == trace.Android {
			o.NumAndroid++
		} else {
			o.NumIOS++
		}
		o.Total++
	}
	var lte, cell, wifi uint64
	for _, ud := range p.UserDays {
		if ud.Excluded {
			continue
		}
		lte += ud.LTERX
		cell += ud.CellRX
		wifi += ud.WiFiRX
	}
	if cell > 0 {
		o.LTEShare = float64(lte) / float64(cell)
	}
	if cell+wifi > 0 {
		o.WiFiShare = float64(wifi) / float64(cell+wifi)
	}
	return o
}
