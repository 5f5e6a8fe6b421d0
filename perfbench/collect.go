package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartusage/internal/agent"
	"smartusage/internal/collector"
	"smartusage/internal/config"
	"smartusage/internal/obs"
	"smartusage/internal/sim"
	"smartusage/internal/tiermerge"
	"smartusage/internal/trace"
	"smartusage/internal/wal"
)

// Collect workload settings. flushEvery is the agent's default BatchSize:
// one upload per hour of 10-minute samples. The replicas get fixed names
// that the agents' dialer maps to the listeners' ephemeral ports, so the
// rendezvous split of devices across the tier is the same on every run.
//
// The WALs run with fsync off. The benchmark writes only inside its
// checkout, which normally sits on a disk, and fsync there made ingest
// throughput swing by a quarter between runs (31.7k-40.9k samples/s over
// four seeds on one machine). With fsync off the runs measure the same
// software path as fsync on tmpfs, where fsync is close to free: 120k
// against 116k samples/s and ack p90 74 against 75 us, same machine. What
// they do not exercise is the commit wait of a group-commit round.
const (
	collectScale  = 0.1
	flushEvery    = 6
	collectToken  = "perfbench"
	spoolSegBytes = 256 << 20 // collectd's -maxseg default
)

var replicaNames = []string{"replica-0", "replica-1"}

// device is one handset's staged samples, in time order.
type device struct {
	id      trace.DeviceID
	os      trace.OS
	samples []trace.Sample
}

// collectBench replays a simulated campaign through real agents into a
// two-replica collector tier with group-commit WALs and rotating spools, then
// merges the replicas' spools into one trace as cmd/tiermerge does.
type collectBench struct {
	scale   float64
	seed    int64
	dir     string
	clients int
	devices []device
	sent    int
	n       int // iterations run, for scratch directory names

	// beforeMerge, when set, runs on the replica spool directories between
	// upload and merge; the self-test plants faults with it.
	beforeMerge func(spools []string) error
}

func newCollect(o options, dir string) *collectBench {
	scale := o.scale
	if scale == 0 {
		scale = collectScale
	}
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	return &collectBench{scale: scale, seed: o.seed, dir: dir, clients: clients}
}

// setup simulates the campaign into per-device memory.
func (b *collectBench) setup(l *layers) (setupResult, error) {
	cfg, err := config.ForYear(2015, b.scale, b.seed)
	if err != nil {
		return setupResult{}, err
	}
	sm, err := sim.New(cfg)
	if err != nil {
		return setupResult{}, err
	}
	b.devices, b.sent = nil, 0
	put := func(s *trace.Sample) error {
		if n := len(b.devices); n == 0 || b.devices[n-1].id != s.Device {
			b.devices = append(b.devices, device{id: s.Device, os: s.OS})
		}
		d := &b.devices[len(b.devices)-1]
		d.samples = append(d.samples, *s.Clone())
		b.sent++
		return nil
	}
	stage, err := runSim(sm, put, l)
	if err != nil {
		return setupResult{}, err
	}
	return setupResult{samples: b.sent, stage: stage}, nil
}

// replica is one collector of the tier with its WAL and spool.
type replica struct {
	srv    *collector.Server
	log    *wal.Log
	spool  *collector.RotatingSpool
	dir    string
	sunk   atomic.Int64
	sink   layerClock
	cancel context.CancelFunc
	served chan struct{}
}

func startReplica(dir string, id int, reg *obs.Registry, l *layers) (*replica, error) {
	r := &replica{dir: dir, served: make(chan struct{})}
	sp, err := collector.NewRotatingSpool(filepath.Join(dir, "spool"), spoolSegBytes)
	if err != nil {
		return nil, err
	}
	r.spool = sp
	r.log, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{
		Policy:      wal.FsyncOff,
		Metrics:     reg,
		MetricsName: replicaNames[id],
	})
	if err != nil {
		sp.Close()
		return nil, err
	}
	write := sp.Sink()
	sink := func(s *trace.Sample) error {
		r.sunk.Add(1)
		return write(s)
	}
	if l != nil {
		sink = func(s *trace.Sample) error {
			t0 := time.Now()
			err := write(s)
			r.sink.add(time.Since(t0), 1)
			r.sunk.Add(1)
			return err
		}
	}
	r.srv, err = collector.New(collector.Config{
		Addr:         "127.0.0.1:0",
		Token:        collectToken,
		ReplicaID:    id,
		TierReplicas: len(replicaNames),
		Sink:         sink,
		WAL:          r.log,
		Logf:         func(string, ...any) {},
	})
	if err == nil {
		err = r.srv.Listen()
	}
	if err != nil {
		r.log.Close()
		sp.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.served)
		r.srv.Serve(ctx)
	}()
	return r, nil
}

// stop shuts the replica down and closes its WAL and spool.
func (r *replica) stop() error {
	r.cancel()
	<-r.served
	err := r.log.Close()
	if cerr := r.spool.Close(); err == nil {
		err = cerr
	}
	return err
}

// session is the client side of one device's upload.
type session struct {
	stats agent.Stats
	lat   []time.Duration // every Flush, from the call
	err   error
}

// upload runs one device's agent: record its samples, flushing every
// flushEvery samples, then close (final flush and bye).
func upload(d *device, dial func(string, time.Duration) (net.Conn, error), l *layers, record *layerClock, firstFlush *durations) session {
	var s session
	a, err := agent.New(agent.Config{
		Servers:   replicaNames,
		Device:    d.id,
		OS:        d.os,
		Token:     collectToken,
		BatchSize: 1 << 30, // flushed here, every flushEvery samples, so each upload is timed
		Dial:      dial,
	})
	if err != nil {
		s.err = err
		return s
	}
	s.lat = make([]time.Duration, 0, len(d.samples)/flushEvery+1)
	flush := func() {
		t0 := time.Now()
		err := a.Flush()
		d := time.Since(t0)
		if l != nil && len(s.lat) == 0 {
			firstFlush.add(d)
		}
		s.lat = append(s.lat, d)
		if err != nil && s.err == nil {
			s.err = err
		}
	}
	for i := range d.samples {
		if l != nil {
			t0 := time.Now()
			a.Record(&d.samples[i])
			record.add(time.Since(t0), 1)
		} else {
			a.Record(&d.samples[i])
		}
		if (i+1)%flushEvery == 0 {
			flush()
		}
	}
	if len(d.samples)%flushEvery != 0 {
		flush()
	}
	if err := a.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.stats = a.Stats()
	return s
}

func (b *collectBench) iteration(l *layers) iterResult {
	it := iterResult{samples: b.sent, layer: map[string]float64{}}
	fail := func(format string, args ...any) {
		it.failed = append(it.failed, fmt.Sprintf(format, args...))
	}
	dir := filepath.Join(b.dir, "iter-"+strconv.Itoa(b.n))
	b.n++
	defer os.RemoveAll(dir)

	reg := obs.NewRegistry()
	var reps []*replica
	addrs := map[string]string{}
	for i, name := range replicaNames {
		r, err := startReplica(filepath.Join(dir, name), i, reg, l)
		if err != nil {
			fail("start %s: %v", name, err)
			for _, r := range reps {
				r.stop()
			}
			return it
		}
		reps = append(reps, r)
		addrs[name] = r.srv.Addr().String()
	}
	dial := func(name string, timeout time.Duration) (net.Conn, error) {
		addr, ok := addrs[name]
		if !ok {
			return nil, fmt.Errorf("unknown replica %q", name)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}

	// Upload: the clients take devices from a shared queue, one session at
	// a time each.
	var (
		next       atomic.Int64
		mu         sync.Mutex
		sessions   []session
		record     layerClock
		firstFlush durations
		wg         sync.WaitGroup
	)
	upSpan := l.span("collect:upload")
	t0 := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.devices) {
					return
				}
				sp := l.span("agent:session").OnTID(c + 1)
				s := upload(&b.devices[i], dial, l, &record, &firstFlush)
				sp.End()
				mu.Lock()
				sessions = append(sessions, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	upWall := time.Since(t0)
	upSpan.End()

	var spools []string
	for i, r := range reps {
		if err := r.stop(); err != nil {
			fail("stop %s: %v", replicaNames[i], err)
		}
		spools = append(spools, filepath.Join(r.dir, "spool"))
	}
	if b.beforeMerge != nil {
		if err := b.beforeMerge(spools); err != nil {
			fail("before merge: %v", err)
		}
	}

	// Merge, as cmd/tiermerge -o does.
	var mergeBase uint64
	if l != nil {
		runtime.GC()
		l.peak.Reset()
		mergeBase = readRuntime(heapObjects)[0]
	}
	mergeSpan := l.span("tiermerge:merge")
	t1 := time.Now()
	st, merged, err := mergeSpools(spools, filepath.Join(dir, "merged.trace"))
	mergeWall := time.Since(t1)
	mergeSpan.End()
	if err != nil {
		fail("tiermerge: %v", err)
	}
	it.wall = upWall + mergeWall
	if l != nil {
		if p := l.peak.Peak(); p > mergeBase {
			it.layer["tiermerge.heap_mib"] = float64(p-mergeBase) / mib
		}
	}

	// Checks: every sample sent is uploaded and sinked exactly once, with no
	// retries, no duplicate batches, one WAL record per accepted batch, and a
	// merged trace holding each sample once.
	var up, retries, failovers int
	for _, s := range sessions {
		it.lat = append(it.lat, s.lat...)
		up += s.stats.Uploaded
		retries += s.stats.Retries
		failovers += s.stats.Failovers
		if s.err != nil {
			fail("agent: %v", s.err)
		}
	}
	if len(sessions) != len(b.devices) {
		fail("%d sessions for %d devices", len(sessions), len(b.devices))
	}
	if up != b.sent {
		fail("uploaded %d of %d samples sent", up, b.sent)
	}
	if retries != 0 || failovers != 0 {
		fail("%d agent retries, %d failovers", retries, failovers)
	}
	var accepted, dups, sunk int64
	for i, r := range reps {
		rs := r.srv.Stats()
		accepted += rs.Batches.Load() - rs.DupBatches.Load()
		dups += rs.DupBatches.Load()
		sunk += r.sunk.Load()
		if rs.SinkErrs.Load() != 0 {
			fail("%s: %d sink errors", replicaNames[i], rs.SinkErrs.Load())
		}
	}
	if dups != 0 {
		fail("collector absorbed %d duplicate batches", dups)
	}
	if sunk != int64(b.sent) {
		fail("sinked %d of %d samples sent", sunk, b.sent)
	}
	snap := reg.Snapshot()
	appends := snap.CounterTotal("wal_appends_total")
	if appends != accepted {
		fail("%d WAL appends for %d accepted batches", appends, accepted)
	}
	if st != nil {
		if st.Unique != b.sent || merged != b.sent {
			fail("tiermerge wrote %d unique samples (%d to the trace) of %d sent", st.Unique, merged, b.sent)
		}
		if st.FailoverDups != 0 {
			fail("tiermerge absorbed %d failover duplicates", st.FailoverDups)
		}
	}

	if l != nil && b.sent > 0 {
		n := float64(b.sent)
		var sink layerClock
		for _, r := range reps {
			sink.add(time.Duration(r.sink.ns.Load()), int(r.sink.n.Load()))
		}
		it.layer["upload.samples_per_s"] = n / upWall.Seconds()
		it.layer["agent.record_ns_per_sample"] = record.nsPer()
		it.layer["agent.first_flush_us_p50"] = float64(percentile(firstFlush.all(), 50).Nanoseconds()) / 1e3
		it.layer["collector.sink_ns_per_sample"] = sink.nsPer()
		it.layer["wal.bytes_per_sample"] = float64(snap.CounterTotal("wal_append_bytes_total")) / n
		it.layer["collector.replica0_share"] = float64(reps[0].sunk.Load()) / n
		it.layer["trace.spool_bytes_per_sample"] = float64(dirBytes(spools)) / n
		it.layer["tiermerge.ns_per_sample"] = float64(mergeWall.Nanoseconds()) / n
	}
	return it
}

// mergeSpools unions the replica spools into one trace file, returning the
// merge statistics and the number of samples the file holds.
func mergeSpools(spools []string, out string) (*tiermerge.Stats, int, error) {
	f, err := os.Create(out)
	if err != nil {
		return nil, 0, err
	}
	w := trace.NewWriter(f)
	st, err := tiermerge.MergeDirs(spools, w.Write)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return st, w.Count(), f.Close()
}

// dirBytes sums the sizes of the spool segments under dirs.
func dirBytes(dirs []string) int64 {
	var n int64
	for _, d := range dirs {
		segs, _ := filepath.Glob(filepath.Join(d, "spool-*.trace"))
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}
