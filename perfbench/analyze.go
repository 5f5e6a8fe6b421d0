package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/config"
	"smartusage/internal/core"
	"smartusage/internal/report"
	"smartusage/internal/sim"
	"smartusage/internal/trace"
)

// analyzeScale is the reference scale of EXPERIMENTS.md: about 1.6M samples
// and a 125 MiB binary trace for the 2015 campaign.
const analyzeScale = 0.25

// analyzeBench analyzes a staged binary trace as cmd/analyze -trace does,
// with the simulated world at hand so the survey runs too, and renders the
// full report. Exact mode shards the trace in memory over GOMAXPROCS
// workers (core.AnalyzeCampaignParallel); sketch mode streams it from the
// file twice on one worker (core.AnalyzeCampaign).
type analyzeBench struct {
	scale   float64
	seed    int64
	sketch  bool
	path    string
	cfg     config.Campaign
	sm      *sim.Simulator
	samples int
	devices int

	out    bytes.Buffer
	digest [sha256.Size]byte // of the first iteration's report
	n      int
}

func newAnalyze(o options, dir string, sketch bool) *analyzeBench {
	scale := o.scale
	if scale == 0 {
		scale = analyzeScale
	}
	return &analyzeBench{scale: scale, seed: o.seed, sketch: sketch, path: filepath.Join(dir, "campaign-2015.trace")}
}

// setup simulates the campaign and writes its binary trace.
func (b *analyzeBench) setup(l *layers) (setupResult, error) {
	cfg, err := config.ForYear(2015, b.scale, b.seed)
	if err != nil {
		return setupResult{}, err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return setupResult{}, err
	}
	f, err := os.Create(b.path)
	if err != nil {
		return setupResult{}, err
	}
	w := trace.NewWriter(f)
	devs := map[trace.DeviceID]bool{}
	put := func(s *trace.Sample) error {
		devs[s.Device] = true
		return w.Write(s)
	}
	stage, err := runSim(sm, put, l)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return setupResult{}, err
	}
	b.cfg, b.sm, b.samples, b.devices = cfg, sm, w.Count(), len(devs)
	return setupResult{samples: b.samples, stage: stage}, nil
}

func (b *analyzeBench) iteration(l *layers) iterResult {
	it := iterResult{samples: b.samples, layer: map[string]float64{}}
	fail := func(format string, args ...any) {
		it.failed = append(it.failed, fmt.Sprintf(format, args...))
	}
	var passes []sourcePass
	src := analysis.FileSource(b.path)
	if l != nil {
		src = timedSource(src, l, &passes)
	}
	decodes0 := trace.DecodeCount()

	t0 := time.Now()
	sp := l.span(spanAnalyze)
	var run *core.CampaignRun
	var err error
	if b.sketch {
		run, err = core.AnalyzeCampaign(b.cfg, b.sm, src, core.Options{SketchMode: true})
	} else {
		run, err = core.AnalyzeCampaignParallel(b.cfg, b.sm, src, core.Options{AnalysisWorkers: runtime.GOMAXPROCS(0)})
	}
	sp.End()
	if err != nil {
		fail("analyze: %v", err)
		return it
	}
	t1 := time.Now()
	sp = l.span(spanRender)
	b.out.Reset()
	err = report.Write(&b.out, &core.Study{
		Opts: core.Options{Scale: b.scale, Seed: b.seed, SketchMode: b.sketch},
		Runs: map[int]*core.CampaignRun{b.cfg.Year: run},
	})
	sp.End()
	it.wall = time.Since(t0)
	renderWall := time.Since(t1)
	decodes := trace.DecodeCount() - decodes0

	// Checks: the analysis saw exactly the staged samples and devices, and
	// the report is byte-identical on every iteration of the run.
	if err != nil {
		fail("render: %v", err)
	}
	if got := run.Prep.Card.Samples; got != b.samples {
		fail("analysis counted %d samples, the trace holds %d", got, b.samples)
	}
	if got := run.Overview.Total; got != b.devices {
		fail("overview counts %d devices, the trace holds %d", got, b.devices)
	}
	d := sha256.Sum256(b.out.Bytes())
	if b.n == 0 {
		b.digest = d
	} else if d != b.digest {
		fail("report differs from the first iteration's (%d bytes)", b.out.Len())
	}
	b.n++

	if l != nil && b.samples > 0 {
		n := float64(b.samples)
		it.layer["trace.decodes_per_sample"] = float64(decodes) / n
		it.layer["render.report_ms"] = float64(renderWall.Microseconds()) / 1e3
		var outside time.Duration
		for _, p := range passes {
			outside += p.wall - p.inside
		}
		it.layer["trace.decode_ns_per_sample"] = float64(outside.Nanoseconds()) / n
		if len(passes) > 0 {
			p := passes[0]
			if b.sketch {
				it.layer["analysis.prepass_ns_per_sample"] = float64(p.inside.Nanoseconds()) / n
				it.layer["analysis.prepass_heap_mib"] = float64(p.heap) / mib
			} else {
				it.layer["analysis.shard_ns_per_sample"] = float64(p.wall.Nanoseconds()) / n
				it.layer["analysis.shard_heap_mib"] = float64(p.heap) / mib
			}
		}
		if b.sketch && len(passes) > 1 {
			it.layer["analysis.pass_ns_per_sample"] = float64(passes[1].inside.Nanoseconds()) / n
		}
	}
	return it
}

// sourcePass is one traced pass over the trace: its wall time, the time
// spent inside the consumer's callback, and the heap it grew by.
type sourcePass struct {
	wall, inside time.Duration
	heap         uint64
}

// timedSource wraps src so every pass records a sourcePass and a span. Time
// outside the callback is the codec's: reading and decoding the next sample.
func timedSource(src analysis.Source, l *layers, passes *[]sourcePass) analysis.Source {
	return func(fn func(*trace.Sample) error) error {
		l.peak.Reset()
		base := readRuntime(heapObjects)[0]
		var inside time.Duration
		sp := l.span("bench:source-pass")
		start := time.Now()
		err := src(func(s *trace.Sample) error {
			t0 := time.Now()
			err := fn(s)
			inside += time.Since(t0)
			return err
		})
		p := sourcePass{wall: time.Since(start), inside: inside}
		sp.End()
		if peak := l.peak.Peak(); peak > base {
			p.heap = peak - base
		}
		*passes = append(*passes, p)
		return err
	}
}

// runSim runs the simulation into stage. With l set it also returns the
// time spent in stage, so the simulator's own time can be told apart.
func runSim(sm *sim.Simulator, stage sim.Sink, l *layers) (time.Duration, error) {
	if l == nil {
		return 0, sm.Run(stage)
	}
	var in time.Duration
	err := sm.Run(func(s *trace.Sample) error {
		t0 := time.Now()
		err := stage(s)
		in += time.Since(t0)
		return err
	})
	return in, err
}
