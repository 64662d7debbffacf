package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters are the process-level counters a measured interval is read
// from: wall clock, user+sys CPU (getrusage) and bytes allocated on the heap
// (runtime/metrics /gc/heap/allocs:bytes, the counter behind
// MemStats.TotalAlloc, read without stopping the world).
type counters struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return counters{at: time.Now(), cpu: processCPU(), alloc: s[0].Value.Uint64()}
}

// counterDelta is what the counters moved by over [from, to).
type counterDelta struct {
	from, to time.Time
	cpu      time.Duration
	alloc    uint64
}

func (c counters) since(prev counters) counterDelta {
	return counterDelta{from: prev.at, to: c.at, cpu: c.cpu - prev.cpu, alloc: c.alloc - prev.alloc}
}

func (d counterDelta) wall() time.Duration { return d.to.Sub(d.from) }

// window brackets a measured interval: the counters plus GC CPU and GC
// pauses (runtime/metrics) and the peak resident set.
type window struct {
	start  counters
	rt     []metrics.Sample
	rssHWM bool // the kernel's peak-RSS mark was reset at start
}

// windowStats is what a closed window measured.
type windowStats struct {
	counterDelta
	gcCPUFrac  float64
	gcPauseP99 time.Duration
	peakRSS    uint64 // bytes
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// openWindow starts a measured interval. It resets the kernel's peak-RSS
// mark (Linux clear_refs) so peak_rss_mb covers this window only.
func openWindow() *window {
	w := &window{rssHWM: os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil}
	w.rt = readRuntime()
	w.start = readCounters()
	return w
}

func (w *window) close() windowStats {
	st := windowStats{counterDelta: readCounters().since(w.start)}
	rt := readRuntime()
	if d := rt[1].Value.Float64() - w.rt[1].Value.Float64(); d > 0 {
		st.gcCPUFrac = (rt[0].Value.Float64() - w.rt[0].Value.Float64()) / d
	}
	st.gcPauseP99 = histDeltaQuantile(w.rt[2].Value.Float64Histogram(), rt[2].Value.Float64Histogram(), 0.99)
	st.peakRSS = peakRSS(w.rssHWM)
	return st
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the peak resident set in bytes: VmHWM when the mark was
// reset for the window, otherwise the process-lifetime maximum from
// getrusage (a kernel without clear_refs; the report says so).
func peakRSS(hwmReset bool) uint64 {
	if hwmReset {
		if f, err := os.Open("/proc/self/status"); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
					kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
					if err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	fmt.Println("note: peak RSS is the process-lifetime maximum (could not reset VmHWM)")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) << 10
}

// histDeltaQuantile returns the q-quantile of the observations added
// between two snapshots of one runtime/metrics histogram (the upper bound of
// the bucket holding it), or 0 when nothing was added.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i]
		if i < len(before.Counts) {
			delta[i] -= before.Counts[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailNote states whether a sample supports its tail percentile: at least
// ten observations must lie beyond it.
func tailNote(n int, q float64) string {
	beyond := int(math.Floor(float64(n) * (1 - q)))
	if beyond < 10 {
		return fmt.Sprintf("n=%d, only %d beyond p%g: NOT SUPPORTED", n, beyond, q*100)
	}
	return fmt.Sprintf("n=%d, %d beyond", n, beyond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). The kb-build workload uses it to attribute
// experiment progress events and classifier folds to grid workers from
// outside the experiment package; it costs about a microsecond per call.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
