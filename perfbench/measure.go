package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metrics read around every iteration. heapObjects is the heap's
// object bytes: live plus not yet collected, the same quantity as
// MemStats.HeapAlloc, but readable without stopping the world.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	gcCycles    = "/gc/cycles/total:gc-cycles"
)

func readRuntime(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// heapPeak samples the heap's object bytes every millisecond on its own
// goroutine and keeps the largest reading since the last Reset. A peak that
// lives for less than a millisecond can be missed; at the benchmark's
// allocation rates that is a few MiB at most.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.Reset()
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Reset starts a new peak window at the current heap size.
func (h *heapPeak) Reset() {
	h.peak.Store(0)
	h.observe(readRuntime(heapObjects)[0])
}

// Peak returns the largest heap size seen in the window, including now.
func (h *heapPeak) Peak() uint64 {
	h.observe(readRuntime(heapObjects)[0])
	return h.peak.Load()
}

// Stop ends the sampler and waits for its goroutine.
func (h *heapPeak) Stop() {
	close(h.stop)
	<-h.done
}

// cpuTime is the process's user plus system CPU time. Time the hypervisor
// steals from the guest is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the aggregate "cpu" line of /proc/stat: ticks spent in
// total and stolen by the hypervisor. ok is false where the file is absent.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// median of vs; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of ds; 0 for none.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// layerClock accumulates time and counts for one layer from several
// goroutines.
type layerClock struct {
	ns atomic.Int64
	n  atomic.Int64
}

func (c *layerClock) add(d time.Duration, n int) {
	c.ns.Add(int64(d))
	c.n.Add(int64(n))
}

// nsPer is the accumulated time per counted item.
func (c *layerClock) nsPer() float64 {
	n := c.n.Load()
	if n == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(n)
}

// durations is a goroutine-safe list of observed durations.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x ...time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x...)
	d.mu.Unlock()
}

func (d *durations) all() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.ds...)
}

const mib = 1 << 20
