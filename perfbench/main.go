// Command perfbench is smartusage's benchmark. It drives the shipped chain
// through its public entry points and times each layer from outside, by
// wrapping the calls it makes into the program:
//
//	collect                sim → agent → proto/collector → wal → spool → tiermerge
//	analyze-shards         trace → analysis (exact, sharded) → core → report
//	analyze-sketch-stream  trace → analysis (sketch, streaming) → core → report
//
// One invocation runs one workload in a fresh process:
//
//	bash perfbench/run.sh --workload analyze-shards --seed 3 --seconds 15 --trace 0
//
// It simulates and stages the inputs several times (setup_s is the median of
// their CPU times), runs one untimed warm-up iteration, measures whole
// iterations for the given number of seconds, then runs one more untimed
// iteration for the heap peak, checking every iteration's output. The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, from a run that measures half its
// time untraced and half with spans recorded (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"smartusage/internal/analysis"
	"smartusage/internal/obs"
)

// metricDef names one reported metric and its unit; the lists below are the
// ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

// The end-to-end metrics are CPU time and heap, which stolen time does not
// charge: on the shared host the benchmark was defined on, hypervisor steal
// ranged from 0.3% to 25% of CPU time between runs, and one workload's wall
// throughput from 0.62M to 1.18M samples/s. Wall-clock figures are per-layer
// metrics (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ns_per_sample", "ns"},
	{"peak_heap_mib", "MiB"},
}

var perLayer = []metricDef{
	{"sim.ns_per_sample", "ns"},
	{"runtime.alloc_bytes_per_sample", "B"},
	{"runtime.gc_cycles", "count"},
	{"host.steal_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
	{"wall.samples_per_s", "1/s"},
	{"upload.samples_per_s", "1/s"},
	{"agent.record_ns_per_sample", "ns"},
	{"agent.first_flush_us_p50", "us"},
	{"agent.ack_p50_us", "us"},
	{"agent.ack_p90_us", "us"},
	{"agent.ack_p99_us", "us"},
	{"collector.sink_ns_per_sample", "ns"},
	{"wal.bytes_per_sample", "B"},
	{"collector.replica0_share", "fraction"},
	{"trace.spool_bytes_per_sample", "B"},
	{"tiermerge.ns_per_sample", "ns"},
	{"tiermerge.heap_mib", "MiB"},
	{"trace.decodes_per_sample", "count"},
	{"trace.decode_ns_per_sample", "ns"},
	{"analysis.shard_ns_per_sample", "ns"},
	{"analysis.shard_heap_mib", "MiB"},
	{"analysis.prep_ms", "ms"},
	{"analysis.run_ms", "ms"},
	{"analysis.merge_ms", "ms"},
	{"analysis.prepass_ns_per_sample", "ns"},
	{"analysis.prepass_heap_mib", "MiB"},
	{"analysis.pass_ns_per_sample", "ns"},
	{"core.assemble_ms", "ms"},
	{"render.report_ms", "ms"},
	{"analysis.cold_iteration_s", "s"},
}

// memGCPercent is the GOGC of the iteration that measures peak_heap_mib.
const memGCPercent = 25

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string  // scratch root; the run works in a fresh directory under it
	scale    float64 // 0 selects the workload's scale
	setups   int     // setup repetitions; setup_s is their median
	minIters int     // measured iterations per phase, at least
}

// workload is one benchmark workload. setup simulates and stages the inputs
// (it may run several times; the last staging is the one measured);
// iteration runs the measured operation once and checks its output. A nil
// *layers means an untraced call: the workload adds no instrumentation.
type workload interface {
	setup(l *layers) (setupResult, error)
	iteration(l *layers) iterResult
}

// setupResult is what one setup staged: the sample count and, in a traced
// run, the time spent staging samples rather than simulating them.
type setupResult struct {
	samples int
	stage   time.Duration
}

// iterResult is what a workload reports for one iteration.
type iterResult struct {
	samples int
	wall    time.Duration   // the measured phase
	lat     []time.Duration // collect: every agent.Flush
	failed  []string        // failed output checks
	layer   map[string]float64
}

// iterStats adds the runner's process-level readings to an iterResult.
type iterStats struct {
	iterResult
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

// layers carries the traced run's instrumentation into a workload.
type layers struct {
	tr   *obs.Tracer
	peak *heapPeak
}

// span starts a span on the traced run's tracer; on nil layers it returns a
// nil span, whose methods do nothing.
func (l *layers) span(name string) *obs.Span {
	if l == nil {
		return nil
	}
	return l.tr.Start(name)
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(o options, dir string) (workload, error) {
	switch o.workload {
	case "collect":
		return newCollect(o, dir), nil
	case "analyze-shards":
		return newAnalyze(o, dir, false), nil
	case "analyze-sketch-stream":
		return newAnalyze(o, dir, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (collect, analyze-shards, analyze-sketch-stream)", o.workload)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: collect, analyze-shards or analyze-sketch-stream")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed stages the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench-runs", "scratch root (traced runs also leave their Chrome trace here)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.setups = 3
	o.minIters = 3
	if o.trace {
		o.setups = 1
		o.minIters = 2
	}

	res, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Failed++
		res.Correct = false
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns the result line; an error means the
// run could not measure at all.
func run(o options, stdout, stderr io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(o.dir, o.workload+"-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(o, dir)
	if err != nil {
		return res, err
	}
	var lt *layers
	var spans *spanBuffer
	if o.trace {
		spans = &spanBuffer{}
		lt = &layers{tr: obs.NewTracer(spans)}
	}

	// Setup, several times: the inputs are simulated and staged afresh each
	// time, and setup_s is the median of their CPU times.
	var setupCPU, setupWall []float64
	var staged setupResult
	var simWall time.Duration // the last setup's time outside staging
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		sp := lt.span("bench:setup")
		cpu0 := cpuTime()
		t0 := time.Now()
		s, err := w.setup(lt)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		sp.End()
		if err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		setupWall = append(setupWall, wall.Seconds())
		staged, simWall = s, wall-s.stage
	}
	runtime.GC()
	base := readRuntime(heapObjects)[0]

	var failures []string
	note := func(it iterResult) {
		res.Attempted++
		if len(it.failed) > 0 {
			res.Failed++
			failures = append(failures, it.failed...)
		}
	}

	// Warm-up: the first iteration in a fresh process pays for cold pools
	// and heap growth; it is checked but not timed into the end-to-end
	// metrics.
	warm := w.iteration(nil)
	note(warm)
	cold := warm.wall

	measure := func(l *layers, budget time.Duration, min int) []iterStats {
		var out []iterStats
		start := time.Now()
		for len(out) < min || time.Since(start) < budget {
			runtime.GC()
			rt0 := readRuntime(heapAllocs, gcCycles)
			cpu0 := cpuTime()
			sp := l.span(spanIteration)
			it := w.iteration(l)
			sp.End()
			note(it)
			out = append(out, finish(it, cpu0, rt0))
		}
		return out
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	host0 := readHostCPU()
	var plain, traced []iterStats
	if o.trace {
		plain = measure(nil, budget/2, o.minIters)
		lt.peak = startHeapPeak()
		defer lt.peak.Stop()
		analysis.SetTracer(lt.tr) // process-wide and sticky: only traced runs install it
		traced = measure(lt, budget/2, o.minIters)
	} else {
		plain = measure(nil, budget, o.minIters)
	}
	steal := stealFrac(host0, readHostCPU())

	// The heap peak comes from one more checked iteration, untimed, with the
	// garbage collector at memGCPercent: the peak then holds the live heap
	// plus at most that share of garbage, where the default GOGC of 100
	// let the same iteration read anywhere between 1x and 2x its live heap
	// depending on where the collections fell.
	var peakMiB float64
	if !o.trace {
		old := debug.SetGCPercent(memGCPercent)
		runtime.GC()
		hp := startHeapPeak()
		note(w.iteration(nil))
		if p := hp.Peak(); p > base {
			peakMiB = float64(p-base) / mib
		}
		hp.Stop()
		debug.SetGCPercent(old)
	}

	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	res.Correct = res.Failed == 0

	env := map[string]any{
		"workload":        o.workload,
		"seed":            o.seed,
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"scratch_fs":      fsType(dir),
		"host_steal_frac": steal,
		"samples":         staged.samples,
		"setup_cpu_s":     setupCPU,
		"setup_wall_s":    setupWall,
		"cold_s":          cold.Seconds(),
		"iterations":      len(plain) + len(traced),
		"iteration_s":     iterationSeconds(plain, traced),
		"iteration_cpu_s": cpuSeconds(plain),
	}

	if !o.trace {
		for k, v := range endToEndMetrics(plain, setupCPU, peakMiB) {
			res.Metrics[k] = v
		}
		printEnv(stdout, env)
		return res, nil
	}

	if err := lt.tr.Close(); err != nil {
		return res, fmt.Errorf("close tracer: %w", err)
	}
	data := spans.Bytes()
	evs, err := parseTrace(data)
	if err != nil {
		return res, err
	}
	tracePath := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	env["chrome_trace"] = tracePath
	fmt.Fprintf(stderr, "perfbench: self time per span (%d traced iterations), trace in %s\n", len(traced), tracePath)
	writeSelfTimes(stderr, evs)

	_, flushes := w.(*collectBench)
	vals := perLayerMetrics(plain, traced, evs, flushes)
	vals["host.steal_frac"] = steal
	if staged.samples > 0 {
		vals["sim.ns_per_sample"] = float64(simWall.Nanoseconds()) / float64(staged.samples)
	}
	if _, ok := w.(*analyzeBench); ok {
		vals["analysis.cold_iteration_s"] = cold.Seconds()
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	printEnv(stdout, env)
	return res, nil
}

func finish(it iterResult, cpu0 time.Duration, rt0 []uint64) iterStats {
	st := iterStats{iterResult: it, cpu: cpuTime() - cpu0}
	rt1 := readRuntime(heapAllocs, gcCycles)
	st.allocs = rt1[0] - rt0[0]
	st.gcs = rt1[1] - rt0[1]
	return st
}

// endToEndMetrics reduces the run: the median setup CPU time, the median
// over measured iterations of CPU time per sample, and the heap peak.
func endToEndMetrics(its []iterStats, setupCPU []float64, peakMiB float64) map[string]metric {
	var cpu []float64
	for _, it := range its {
		if it.samples > 0 {
			cpu = append(cpu, float64(it.cpu.Nanoseconds())/float64(it.samples))
		}
	}
	vals := map[string]float64{
		"setup_s":           median(setupCPU),
		"cpu_ns_per_sample": median(cpu),
		"peak_heap_mib":     peakMiB,
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// perLayerMetrics combines the workload's own per-layer readings from the
// traced iterations; wall throughput, ack latencies and the runtime's
// allocation and GC counts from the untraced ones; and the analysis stage
// times from the spans. A layer the workload bypasses reads 0.
func perLayerMetrics(plain, traced []iterStats, evs []*event, flushes bool) map[string]float64 {
	vals := map[string]float64{}
	var allocs, gcs, plainRate, tracedRate []float64
	var lat []time.Duration
	for _, it := range plain {
		if it.samples > 0 {
			allocs = append(allocs, float64(it.allocs)/float64(it.samples))
			plainRate = append(plainRate, float64(it.samples)/it.wall.Seconds())
		}
		gcs = append(gcs, float64(it.gcs))
		lat = append(lat, it.lat...)
	}
	vals["runtime.alloc_bytes_per_sample"] = median(allocs)
	vals["runtime.gc_cycles"] = median(gcs)
	collect := map[string][]float64{}
	for _, it := range traced {
		if it.samples > 0 {
			tracedRate = append(tracedRate, float64(it.samples)/it.wall.Seconds())
		}
		for k, v := range it.layer {
			collect[k] = append(collect[k], v)
		}
	}
	for k, v := range analysisLayers(evs) {
		collect[k] = v
	}
	for k, v := range collect {
		vals[k] = median(v)
	}
	vals["wall.samples_per_s"] = median(plainRate)
	if p := median(plainRate); p > 0 {
		vals["bench.trace_overhead_frac"] = 1 - median(tracedRate)/p
	}
	if flushes {
		for _, p := range []int{50, 90, 99} {
			vals[fmt.Sprintf("agent.ack_p%d_us", p)] = float64(percentile(lat, float64(p)).Nanoseconds()) / 1e3
		}
	}
	return vals
}

func printEnv(w io.Writer, env map[string]any) {
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(w, string(line))
}

// iterationSeconds lists every measured iteration's wall time, untraced
// first, for the run record.
func iterationSeconds(sets ...[]iterStats) []float64 {
	var out []float64
	for _, set := range sets {
		for _, it := range set {
			out = append(out, it.wall.Seconds())
		}
	}
	return out
}

func cpuSeconds(its []iterStats) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, it.cpu.Seconds())
	}
	return out
}
