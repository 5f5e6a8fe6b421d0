package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale keeps every workload to a few devices, so the whole self-test
// takes seconds.
const tinyScale = 0.01

func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.001,
		trace:    trace,
		dir:      t.TempDir(),
		scale:    tinyScale,
		setups:   2,
		minIters: 2,
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if _, err := newWorkload(options{workload: w.Name}, t.TempDir()); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

// TestEveryMetricPrintedWithUnit runs each workload at a tiny scale, untraced
// and traced, and checks the result line: all checks pass, and every metric
// of the mode is present, by name, with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range []string{"collect", "analyze-shards", "analyze-sketch-stream"} {
		for _, traced := range []bool{false, true} {
			o := tiny(t, w, traced)
			res, err := run(o, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			// Warm-up, the measured iterations, then either the heap
			// iteration or the traced ones.
			attempts := 1 + o.minIters + 1
			if traced {
				attempts = 1 + 2*o.minIters
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != attempts {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if back.Correct == nil || back.Attempted == nil || back.Failed == nil {
				t.Errorf("%s trace=%v: result line lacks a key: %s", w, traced, line)
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w, traced, len(back.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := back.Metrics[d.name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, traced, d.name, m.Unit, d.unit)
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, *m.Value)
				}
			}
		}
	}
}

// TestCollectCatchesDoubleSink plants a fault the collect checks must trip:
// a replica's spool segment copied into the same replica, as if it had sunk
// those samples twice.
func TestCollectCatchesDoubleSink(t *testing.T) {
	b := newCollect(tiny(t, "collect", false), t.TempDir())
	if _, err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	if it := b.iteration(nil); len(it.failed) != 0 {
		t.Fatalf("clean iteration failed: %v", it.failed)
	}
	b.beforeMerge = func(spools []string) error {
		for _, dir := range spools {
			segs, err := filepath.Glob(filepath.Join(dir, "spool-*.trace"))
			if err != nil || len(segs) == 0 {
				continue
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "spool-999999.trace"), data, 0o644)
		}
		t.Fatal("no spool segment to copy")
		return nil
	}
	it := b.iteration(nil)
	if !strings.Contains(strings.Join(it.failed, "\n"), "double-sink") {
		t.Fatalf("planted double-sink not caught; failed checks: %v", it.failed)
	}
}
