package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// spanBuffer keeps the traced run's Chrome trace in memory: obs.Tracer
// writes to it, and the benchmark reads the spans back when the run ends,
// then writes the file.
type spanBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *spanBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// event is one completed span ("ph":"X") as obs.Tracer writes it; ts and
// dur are microseconds.
type event struct {
	Name string            `json:"name"`
	TID  int64             `json:"tid"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Args map[string]string `json:"args,omitempty"`

	self int64 // dur minus the part covered by nested spans on the same track
}

func (e *event) end() int64 { return e.TS + e.Dur }

// within reports whether e starts inside outer's interval.
func (e *event) within(outer *event) bool {
	return e.TS >= outer.TS && e.TS <= outer.end()
}

// parseTrace reads the Chrome trace back and derives every span's self
// time: its duration minus the time its direct children on the same track
// cover. Spans on other tracks (shard workers) run concurrently and are not
// children.
func parseTrace(data []byte) ([]*event, error) {
	var all []*event
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	evs := all[:0]
	for _, e := range all {
		if e != nil && e.Name != "" { // the array's closing {} placeholder
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur
	})
	var stack []*event
	for i, e := range evs {
		if i > 0 && evs[i-1].TID != e.TID {
			stack = stack[:0]
		}
		for len(stack) > 0 && stack[len(stack)-1].end() < e.end() {
			stack = stack[:len(stack)-1]
		}
		e.self = e.Dur
		if len(stack) > 0 {
			stack[len(stack)-1].self -= e.Dur
		}
		stack = append(stack, e)
	}
	for _, e := range evs {
		if e.self < 0 {
			e.self = 0 // microsecond rounding of a child that fills its parent
		}
	}
	return evs, nil
}

// writeSelfTimes prints one row per span name: count, total and self time.
func writeSelfTimes(w io.Writer, evs []*event) {
	type row struct {
		name        string
		n           int
		total, self int64
	}
	rows := map[string]*row{}
	for _, e := range evs {
		r := rows[e.Name]
		if r == nil {
			r = &row{name: e.Name}
			rows[e.Name] = r
		}
		r.n++
		r.total += e.Dur
		r.self += e.self
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range list {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f\n", r.name, r.n, float64(r.total)/1e3, float64(r.self)/1e3)
	}
}

// Span names the benchmark records around the program's public calls.
const (
	spanIteration = "bench:iteration"
	spanAnalyze   = "bench:analyze" // core.AnalyzeCampaign*
	spanRender    = "bench:render"  // report.Write
)

// analysisLayers derives, for every traced iteration, the analysis stage
// times from the spans the analysis engine emits itself (analysis.SetTracer):
// prepass, second pass without its merges, merges, and the assembly that
// follows the last analysis span inside the core call.
func analysisLayers(evs []*event) map[string][]float64 {
	out := map[string][]float64{}
	for _, it := range evs {
		if it.Name != spanIteration {
			continue
		}
		var prep, run, merge int64
		var call *event
		var lastEnd int64
		for _, e := range evs {
			if !e.within(it) || e == it {
				continue
			}
			switch {
			case e.Name == spanAnalyze:
				call = e
			case e.Name == "analysis:prep" || e.Name == "analysis:prep-shards" || e.Name == "analysis:prep-parallel":
				prep += e.Dur
			case e.Name == "analysis:run" || e.Name == "analysis:run-shards" || e.Name == "analysis:run-parallel":
				run += e.Dur
			case e.Name == "analysis:merge":
				merge += e.Dur
			}
			if strings.HasPrefix(e.Name, "analysis:") && e.end() > lastEnd {
				lastEnd = e.end()
			}
		}
		if call == nil {
			continue
		}
		out["analysis.prep_ms"] = append(out["analysis.prep_ms"], float64(prep)/1e3)
		out["analysis.run_ms"] = append(out["analysis.run_ms"], float64(run-merge)/1e3)
		out["analysis.merge_ms"] = append(out["analysis.merge_ms"], float64(merge)/1e3)
		if lastEnd > 0 && call.end() >= lastEnd {
			out["core.assemble_ms"] = append(out["core.assemble_ms"], float64(call.end()-lastEnd)/1e3)
		}
	}
	return out
}
