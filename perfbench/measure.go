package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples collects one kind of timing. Values are kept whole so the
// report can give any quantile, and the raw data can be written out.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + frac*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

// p99 is the 99th percentile. Callers make sure the set holds at least
// 1000 samples, so that at least ten lie beyond it.
func (s samples) p99() float64 { return s.quantile(0.99) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// blocks is how many equal parts of a window latencies are kept in.
const blocks = 10

// series keeps a window's latencies per block of the window. A quantile
// is taken in each block and the median over blocks reported, so that a
// stall that a neighbouring process causes on a shared host moves one
// block, not the figure.
type series struct {
	start time.Time
	block time.Duration
	b     []samples
}

func newSeries(start time.Time, window time.Duration) *series {
	return &series{start: start, block: window / blocks, b: make([]samples, blocks)}
}

// add files a latency by the time its operation started.
func (s *series) add(at time.Time, v float64) {
	i := int(at.Sub(s.start) / s.block)
	s.b[min(max(i, 0), len(s.b)-1)].add(v)
}

func (s *series) merge(o *series) {
	for i := range s.b {
		s.b[i] = append(s.b[i], o.b[i]...)
	}
}

func (s *series) len() int {
	n := 0
	for _, b := range s.b {
		n += len(b)
	}
	return n
}

// quantile is the median over blocks of each block's q-quantile. Only
// blocks with at least ten samples beyond the quantile count; when no
// block has that many, the whole window's quantile is reported.
func (s *series) quantile(q float64) float64 {
	var per samples
	var all samples
	for _, b := range s.b {
		all = append(all, b...)
		if float64(len(b))*(1-q) >= 10 {
			per.add(b.quantile(q))
		}
	}
	if len(per) == 0 {
		return all.quantile(q)
	}
	return per.median()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rateMeter splits a window into one-second slices and reports the
// median per-second completion rate. A stall that a neighbouring
// process causes then moves one slice, not the figure.
type rateMeter struct {
	start time.Time
	slot  time.Duration
	n     []int64
}

func newRateMeter(start time.Time, window time.Duration) *rateMeter {
	slot := time.Second
	if window < 4*time.Second {
		slot = window / 4
	}
	return &rateMeter{start: start, slot: slot, n: make([]int64, int(window/slot)+1)}
}

func (r *rateMeter) done(at time.Time) {
	if i := int(at.Sub(r.start) / r.slot); i >= 0 && i < len(r.n) {
		r.n[i]++
	}
}

// merge adds another meter's counts; meters of concurrent clients share
// start and slot.
func (r *rateMeter) merge(o *rateMeter) {
	for i := range r.n {
		r.n[i] += o.n[i]
	}
}

// perSecond is the median rate over the whole slices (the last, partial
// slice is dropped).
func (r *rateMeter) perSecond() float64 {
	var s samples
	for _, n := range r.n[:len(r.n)-1] {
		s.add(float64(n) / r.slot.Seconds())
	}
	return s.median()
}

// procStats is the runtime and OS accounting read at a window's edges.
type procStats struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration
	writeBytes int64
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time is reported if it fails
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{
		totalAlloc: m.TotalAlloc,
		numGC:      m.NumGC,
		pauseNs:    m.PauseTotalNs,
		cpu:        cpu,
		writeBytes: procWriteBytes(),
	}
}

// procWriteBytes reads the bytes this process caused to be written to
// storage (/proc/self/io write_bytes); -1 where the kernel does not
// provide it.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// runtimeMetrics are the runtime layer's per-layer figures over a
// window that completed ops operations.
func runtimeMetrics(m metrics, before, after procStats, ops int) {
	k := float64(ops)
	if k == 0 {
		k = 1
	}
	m.set("runtime.alloc_bytes_per_op", float64(after.totalAlloc-before.totalAlloc)/k, "B")
	m.set("runtime.gc_cycles_per_kop", float64(after.numGC-before.numGC)/k*1000, "count")
	m.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
	m.set("runtime.cpu_ms_per_kop", ms(after.cpu-before.cpu)/k*1000, "ms")
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
