package analysis

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"smartusage/internal/mempool"
	"smartusage/internal/trace"
)

// This file implements the analysis engine's inputs. Both pipeline passes
// admit a map-reduce shape: samples are partitioned by device (so all state
// keyed per device stays partition-local), each partition accumulates
// independently, and partition results are merged in fixed partition order.
//
// Determinism contract: given the same samples, every Input produces
// identical results, for any partition count. This holds because (a)
// analyzer accumulations sum integer-valued floats (byte counts, interval
// counts, battery levels), which float64 adds exactly in any order; (b)
// merges always run in partition-index order on one goroutine; (c) the few
// stream-order-dependent reductions (AP first-observation snapshots, raw
// duration slices) use explicit deterministic rules instead of arrival
// order.

// ShardedAnalyzer is an Analyzer that can fan out over device-partitioned
// shards and fold the shards back together.
type ShardedAnalyzer interface {
	Analyzer
	// NewShard returns a fresh, empty analyzer of the same kind and
	// configuration, safe to feed from another goroutine.
	NewShard() Analyzer
	// Merge folds a shard previously returned by NewShard into the
	// receiver. Callers guarantee no two merged shards saw the same
	// device, and always merge in fixed shard order.
	Merge(shard Analyzer)
}

// Input is a campaign's samples partitioned by device: every sample of a
// device falls in one partition, in stream order. BuildPrep and Run take
// any Input; whether the samples are held in memory or decoded per pass is
// a property of the input, not of the engine. The implementations are a
// Source (one partition), Stream (a streaming decode fanned out to worker
// goroutines) and *Shards (in-memory partitions).
type Input interface {
	// width returns the number of partitions.
	width() int
	// each runs one pass, calling work for every sample with the index of
	// its partition. Calls for one partition run on one goroutine in
	// stream order; different partitions may run concurrently. The sample
	// is valid only during the call. The first error stops the pass.
	each(work func(part int, s *trace.Sample) error) error
	// serial returns the same samples as one sequential stream.
	serial() Source
}

func (src Source) width() int { return 1 }

func (src Source) each(work func(int, *trace.Sample) error) error {
	return src(func(s *trace.Sample) error { return work(0, s) })
}

func (src Source) serial() Source { return src }

// shardOf maps a device to one of n shards. The device bits go through a
// splitmix64-style finalizer first so that sequentially assigned IDs spread
// evenly for every shard count.
func shardOf(dev trace.DeviceID, n int) int {
	x := uint64(dev)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// Pools shared by every campaign analysis in the process. Shards copies the
// whole campaign into memory and Stream copies it batch by batch (sample
// slabs plus arena chunks for the per-sample Apps/APs slices); recycling
// those buffers across campaign years and repeated runs is what keeps the
// partitioned inputs' steady-state allocation near a plain Source's,
// instead of 11x over it.
var (
	samplePool = mempool.NewSlicePool[trace.Sample](64)
	apObsPool  = mempool.NewSlicePool[trace.APObs](256)
	appPool    = mempool.NewSlicePool[trace.AppTraffic](256)
	floatPool  = mempool.NewSlicePool[float64](64)
)

// slab is a run of deep-copied samples in pooled memory: the sample slice
// plus the arenas backing every sample's Apps/APs slices. Shards keeps one
// per partition; Stream cycles fixed-size ones from decoder to worker.
type slab struct {
	samples []trace.Sample
	aps     mempool.Arena[trace.APObs]
	apps    mempool.Arena[trace.AppTraffic]
}

func newSlab(samples []trace.Sample) slab {
	return slab{samples: samples, aps: mempool.NewArena(apObsPool), apps: mempool.NewArena(appPool)}
}

// add deep-copies s into the slab, growing the sample slice through the
// pool when it is full.
func (b *slab) add(s *trace.Sample) {
	if len(b.samples) == cap(b.samples) {
		n := 2 * cap(b.samples)
		if n < 1024 {
			n = 1024
		}
		b.samples = samplePool.Grow(b.samples, n)
	}
	b.samples = append(b.samples, *s)
	ns := &b.samples[len(b.samples)-1]
	ns.Apps = b.apps.Append(s.Apps)
	ns.APs = b.aps.Append(s.APs)
}

// reset empties the slab, returning its arena chunks to the pools; the
// sample slice keeps its capacity.
func (b *slab) reset() {
	b.samples = b.samples[:0]
	b.aps.Release()
	b.apps.Release()
}

// Shards holds a campaign's samples decoded once and partitioned by device,
// so both pipeline passes can stream from memory without touching the codec
// again. It is an Input whose each runs one goroutine per partition. Its
// memory comes from process-wide pools: call Release when the analyses are
// done so the next campaign reuses the slabs.
type Shards struct {
	parts []slab
}

// NewShards returns an empty n-way partition (n < 1 is treated as 1).
func NewShards(n int) *Shards {
	if n < 1 {
		n = 1
	}
	sh := &Shards{parts: make([]slab, n)}
	for w := range sh.parts {
		sh.parts[w] = newSlab(nil)
	}
	return sh
}

// Add routes one sample to its device's shard. The sample is deep-copied,
// so Add is safe to use as a simulation sink or Source callback whose
// *trace.Sample is reused. Not safe for concurrent use.
func (sh *Shards) Add(s *trace.Sample) error {
	sh.parts[shardOf(s.Device, len(sh.parts))].add(s)
	return nil
}

// Len returns the total number of samples held.
func (sh *Shards) Len() int {
	n := 0
	for i := range sh.parts {
		n += len(sh.parts[i].samples)
	}
	return n
}

// Release returns the partition's buffers to the process-wide pools. The
// Shards (and every sample ever streamed from it) is invalid afterwards;
// callers release only after all results are assembled. Analyzers honor this
// by never retaining a sample's slices past Add — the merge contract's
// retention rule (see DESIGN.md "Memory & pooling").
func (sh *Shards) Release() {
	for w := range sh.parts {
		p := &sh.parts[w]
		p.reset()
		samplePool.Put(p.samples)
		p.samples = nil
	}
}

func (sh *Shards) width() int { return len(sh.parts) }

// each runs one goroutine per partition. The lowest-index partition error is
// returned.
func (sh *Shards) each(work func(int, *trace.Sample) error) error {
	errs := make([]error, len(sh.parts))
	var wg sync.WaitGroup
	for w := range sh.parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := sh.parts[w].samples
			for i := range part {
				if err := work(w, &part[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstError(errs)
}

// serial replays every partition in partition order. Per-device sample order
// is preserved (each device lives in exactly one partition, and partitions
// keep arrival order).
func (sh *Shards) serial() Source {
	return func(fn func(*trace.Sample) error) error {
		for w := range sh.parts {
			part := sh.parts[w].samples
			for i := range part {
				if err := fn(&part[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// ShardSamples decodes src exactly once into an n-way device partition.
func ShardSamples(src Source, n int) (*Shards, error) {
	sh := NewShards(n)
	err := src(sh.Add)
	if err == nil {
		return sh, nil
	}
	sh.Release()
	return nil, err
}

// stream is the Input Stream returns.
type stream struct {
	src Source
	n   int
}

// Stream partitions src by device over n worker goroutines without holding
// the campaign in memory: each pass decodes src once on the calling
// goroutine and hands pooled batches of copies to the workers (fanOut).
// n <= 0 selects GOMAXPROCS; n == 1 returns src itself.
func Stream(src Source, n int) Input {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == 1 {
		return src
	}
	return stream{src: src, n: n}
}

func (st stream) width() int { return st.n }

func (st stream) each(work func(int, *trace.Sample) error) error {
	return fanOut(st.src, st.n, work)
}

func (st stream) serial() Source { return st.src }

// Fan-out tuning: workers receive samples in batches to amortize channel
// operations; a small backlog per worker keeps the decoder ahead without
// holding much of the trace in flight.
const (
	fanOutBatch   = 512
	fanOutBacklog = 4
)

// errFanOutStopped aborts the source pass after a worker failure.
var errFanOutStopped = errors.New("analysis: fan-out stopped")

// batchPool recycles fan-out batches across partitions, runs, and campaigns.
// Batches cycle producer → worker → pool; the worker recycles the batch
// once work has seen all of it, which is why analyzers must not retain
// sample slices past Add.
var batchPool = sync.Pool{New: func() any {
	b := newSlab(samplePool.Get(fanOutBatch))
	return &b
}}

// recycle empties a fan-out batch and returns it to the pool.
func recycle(b *slab) {
	b.reset()
	batchPool.Put(b)
}

// fanOut streams src once on the calling goroutine, deep-copying each sample
// into pooled batches routed by device hash to one of n worker goroutines.
// work runs on a dedicated goroutine per shard and sees that shard's samples
// in stream order; a batch is recycled once work has seen all of it. The
// source error takes precedence; otherwise the lowest-index worker error is
// returned.
func fanOut(src Source, n int, work func(shard int, s *trace.Sample) error) error {
	chans := make([]chan *slab, n)
	errs := make([]error, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		chans[w] = make(chan *slab, fanOutBacklog)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			for batch := range chans[w] {
				for i := 0; i < len(batch.samples) && err == nil; i++ {
					if err = work(w, &batch.samples[i]); err != nil {
						stop.Store(true)
					}
				}
				recycle(batch)
			}
			errs[w] = err
		}(w)
	}

	batches := make([]*slab, n)
	srcErr := src(func(s *trace.Sample) error {
		if stop.Load() {
			return errFanOutStopped
		}
		w := shardOf(s.Device, n)
		b := batches[w]
		if b == nil {
			b = batchPool.Get().(*slab)
			batches[w] = b
		}
		b.add(s)
		if len(b.samples) >= fanOutBatch {
			chans[w] <- b
			batches[w] = nil
		}
		return nil
	})
	for w := 0; w < n; w++ {
		if b := batches[w]; b != nil {
			if srcErr == nil && len(b.samples) > 0 {
				chans[w] <- b
			} else {
				recycle(b)
			}
		}
		close(chans[w])
	}
	wg.Wait()

	if srcErr != nil && !errors.Is(srcErr, errFanOutStopped) {
		return srcErr
	}
	return firstError(errs)
}

// firstError returns the lowest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardAnalyzers clones every base analyzer n times via NewShard. ok is
// false when n < 2 or any analyzer does not implement ShardedAnalyzer; Run
// then feeds the base analyzers from the input's serial stream.
func shardAnalyzers(base []Analyzer, n int) (perShard [][]Analyzer, ok bool) {
	if n < 2 {
		return nil, false
	}
	perShard = make([][]Analyzer, n)
	for w := range perShard {
		perShard[w] = make([]Analyzer, len(base))
	}
	for i, a := range base {
		sa, isSharded := a.(ShardedAnalyzer)
		if !isSharded {
			return nil, false
		}
		for w := 0; w < n; w++ {
			perShard[w][i] = sa.NewShard()
		}
	}
	return perShard, true
}

// mergeShards folds per-shard analyzers back into the base set, always in
// shard-index order so merge-order-sensitive state stays deterministic.
func mergeShards(base []Analyzer, perShard [][]Analyzer) {
	for i, a := range base {
		sp := traceStart("analysis:merge").Arg("analyzer", fmt.Sprintf("%T", a))
		sa := a.(ShardedAnalyzer)
		for w := range perShard {
			sa.Merge(perShard[w][i])
		}
		sp.End()
	}
}
