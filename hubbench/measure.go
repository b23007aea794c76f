package main

import (
	"bufio"
	"bytes"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entityid/internal/obs"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 1024ns, then 512 sub-buckets per power of two (relative error under
// 0.2%). It has a fixed size, so recording millions of samples neither
// allocates nor grows the live heap the memory metrics measure.
type hist struct {
	counts [1024 + 54*512]uint64
	n      uint64
	sum    float64
}

func histIndex(ns int64) int {
	if ns < 1024 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 10
	return 1024 + (e-1)*512 + int(uint64(ns)>>e) - 512
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < 1024 {
		return float64(i)
	}
	e := (i-1024)/512 + 1
	lo := float64(uint64((i-1024)%512+512) << e)
	return lo + float64(uint64(1)<<e)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
	h.sum += float64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// tailQ is the tail percentile a timing is reported at: p99 when at
// least ten samples lie beyond it, else the highest percentile that
// still has ten samples beyond it (never below the median).
func tailQ(n uint64) float64 {
	q := 0.99
	if n > 0 {
		q = math.Min(q, 1-10/float64(n))
	}
	return math.Max(q, 0.5)
}

// timing summarises a histogram as the end-to-end metrics report it.
type timing struct {
	n         uint64
	p50, tail float64 // nanoseconds
	tailQ     float64
	mean      float64
}

func (h *hist) timing() timing {
	t := timing{n: h.n, p50: h.quantile(0.5), tailQ: tailQ(h.n)}
	t.tail = h.quantile(t.tailQ)
	if h.n > 0 {
		t.mean = h.sum / float64(h.n)
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// scrape parses the program's own Prometheus exposition into series →
// value, skipping histogram buckets (only _sum and _count are used).
// The registry is process-global, so every figure taken from it is a
// delta between two scrapes around one window.
type scrape map[string]float64

func takeScrape() scrape {
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	out := scrape{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		if strings.Contains(series, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[series] = v
	}
	return out
}

// sub returns after − before for one series.
func (after scrape) sub(before scrape, series string) float64 {
	return after[series] - before[series]
}

// meanUS returns the mean of a latency histogram series over the
// window, in microseconds (0 when nothing was observed).
func (after scrape) meanUS(before scrape, name, labels string) float64 {
	n := after.sub(before, name+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return after.sub(before, name+"_sum"+labels) / n * 1e6
}

// allocs is a runtime.MemStats reading for per-op allocation deltas.
type allocs struct{ mallocs, bytes uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc}
}

// perOp returns allocations and bytes per op since a.
func (a allocs) perOp(ops int) (float64, float64) {
	if ops <= 0 {
		return 0, 0
	}
	b := readAllocs()
	return float64(b.mallocs-a.mallocs) / float64(ops), float64(b.bytes-a.bytes) / float64(ops)
}

// cpuTime returns the CPU time the process has used, user and system,
// over all its threads. On a virtual machine the time the host takes
// the virtual CPUs away is not charged to it, so CPU time per operation
// stays steady where wall-clock rates swing with the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the live heap after two full collections, the
// quiescent reading the memory metrics use.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
