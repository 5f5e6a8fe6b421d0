package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smartusage/internal/config"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

// TestAnalyzeTraceDecodes pins how -trace analysis reads the file. Sketch
// mode streams both passes from the file for every worker count, two decodes
// per sample, so its memory stays bounded; exact mode with workers decodes
// the trace once into memory. The sketch results must not depend on the
// worker count.
func TestAnalyzeTraceDecodes(t *testing.T) {
	cfg, err := config.ForYear(2015, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign-2015.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	err = sm.Run(w.Write)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(w.Count())
	if n == 0 {
		t.Fatal("simulated an empty trace")
	}

	var sketchSeq any
	for _, tc := range []struct {
		workers int
		sketch  bool
		decodes uint64 // per sample
	}{
		{0, false, 2},
		{2, false, 1},
		{0, true, 2},
		{2, true, 2},
	} {
		start := trace.DecodeCount()
		run, err := analyzeTrace(path, cfg, tc.workers, tc.sketch)
		if err != nil {
			t.Fatalf("workers=%d sketch=%v: %v", tc.workers, tc.sketch, err)
		}
		if got := trace.DecodeCount() - start; got != tc.decodes*n {
			t.Errorf("workers=%d sketch=%v: %d decodes for %d samples, want %d per sample",
				tc.workers, tc.sketch, got, n, tc.decodes)
		}
		if tc.sketch {
			if sketchSeq == nil {
				sketchSeq = run.Durations
			} else if !reflect.DeepEqual(sketchSeq, run.Durations) {
				t.Errorf("workers=%d: sketch association durations differ from sequential", tc.workers)
			}
		}
	}
}
