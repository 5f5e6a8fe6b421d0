package analysis

import (
	"smartusage/internal/stats"
	"smartusage/internal/trace"
)

// AssocDuration reproduces Fig. 13: the distribution of consecutive time a
// device stays on the same AP, per location class. A run extends while
// successive samples of a device report the same associated pair with no
// gap larger than one missed interval.
type AssocDuration struct {
	meta     Meta
	prep     *Prep
	sketched bool
	cur      map[trace.DeviceID]*assocRun
	hours    [NumAPClasses]*Dist
}

type assocRun struct {
	key   APKey
	start int64
	last  int64
}

// maxGapSeconds tolerates one missing report inside a run.
const maxGapSeconds = 1300

// NewAssocDuration returns an empty Fig. 13 accumulator; sketched selects
// sketch-mode distributions (see Dist).
func NewAssocDuration(meta Meta, prep *Prep, sketched bool) *AssocDuration {
	a := &AssocDuration{meta: meta, prep: prep, sketched: sketched, cur: make(map[trace.DeviceID]*assocRun)}
	for c := range a.hours {
		a.hours[c] = newDist(sketched)
	}
	return a
}

// Add implements Analyzer. Samples of one device must arrive in time order
// (trace files and the simulator guarantee this).
func (a *AssocDuration) Add(s *trace.Sample) {
	run := a.cur[s.Device]
	ap := s.AssociatedAP()
	if ap == nil {
		if run != nil && run.start != 0 {
			a.close(run)
			// The closed run's struct stays in the map as a placeholder
			// (start == 0; sample times are epoch seconds, never zero) so
			// the device's next association reuses it: steady-state memory
			// is one assocRun per device, ever.
			*run = assocRun{}
		}
		return
	}
	key := APKey{BSSID: ap.BSSID, ESSID: ap.ESSID}
	open := run != nil && run.start != 0
	if open && run.key == key && s.Time-run.last <= maxGapSeconds {
		run.last = s.Time
		return
	}
	if run == nil {
		a.cur[s.Device] = &assocRun{key: key, start: s.Time, last: s.Time}
		return
	}
	if open {
		a.close(run)
	}
	*run = assocRun{key: key, start: s.Time, last: s.Time}
}

func (a *AssocDuration) close(run *assocRun) {
	// A run of one sample lasted one interval.
	hours := float64(run.last-run.start+600) / 3600
	a.hours[a.prep.ClassOf(run.key)].Add(hours)
}

// NewShard implements ShardedAnalyzer.
func (a *AssocDuration) NewShard() Analyzer { return NewAssocDuration(a.meta, a.prep, a.sketched) }

// Merge implements ShardedAnalyzer. Shards are device-disjoint, so open
// runs transfer without clashing.
func (a *AssocDuration) Merge(shard Analyzer) {
	o := shard.(*AssocDuration)
	for dev, run := range o.cur {
		a.cur[dev] = run
	}
	for c := range a.hours {
		a.hours[c].merge(o.hours[c])
	}
}

// AssocDurationResult holds the per-class duration distributions and CCDFs.
type AssocDurationResult struct {
	// Hours[class] are the run durations.
	Hours [NumAPClasses]*Dist
	// CCDF[class] is the complementary CDF of Hours[class].
	CCDF [NumAPClasses]stats.Distribution
	// P90Hours[class] is the 90th percentile (≈12 h home, 8 h office,
	// 1 h public in the paper).
	P90Hours [NumAPClasses]float64
}

// Result flushes open runs and finalizes the distributions.
func (a *AssocDuration) Result() AssocDurationResult {
	for dev, run := range a.cur {
		if run.start != 0 {
			a.close(run)
		}
		delete(a.cur, dev)
	}
	var r AssocDurationResult
	for c := APClass(0); c < NumAPClasses; c++ {
		d := a.hours[c]
		d.finish()
		r.Hours[c] = d
		r.CCDF[c] = d.CCDF()
		r.P90Hours[c] = d.Quantile(0.90)
	}
	return r
}
