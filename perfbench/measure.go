package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail.
const tailBeyond = 10

// tail is a latency tail: the highest percentile of n samples that
// still has at least tailBeyond samples beyond it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // e.g. 92.3 for p92.3
	N          int     // sample count
}

// tailOf returns the highest percentile with at least tailBeyond
// samples strictly beyond it, in rank terms: of n sorted samples, the
// (tailBeyond+1)-th largest, reported as percentile 100*(n-tailBeyond)/n.
// ok is false when there are too few samples for any such percentile
// (n <= tailBeyond); Value then holds the maximum.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	t.N = n
	if n == 0 {
		return t, false
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		t.Value, t.Percentile = s[n-1], 100
		return t, false
	}
	t.Value = s[n-1-tailBeyond]
	t.Percentile = 100 * float64(n-tailBeyond) / float64(n)
	return t, true
}

func (t tail) String() string {
	return fmt.Sprintf("p%.1f of %d", t.Percentile, t.N)
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark,
// from /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// stealTicks returns the host's cumulative steal time in clock ticks
// (USER_HZ, normally 100/s) from the aggregate cpu line of /proc/stat,
// or -1 where it is unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostSample is a snapshot of the noise diagnostics around a phase.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration
	steal int64
}

func sampleHost() hostSample {
	return hostSample{wall: time.Now(), cpu: cpuTime(), steal: stealTicks()}
}

// hostNoise is what the host did during a phase: wall time, this
// process's CPU time, and the steal the hypervisor took from all CPUs.
// It is printed beside every run and never gated.
type hostNoise struct {
	Wall   time.Duration
	CPU    time.Duration
	StealS float64 // -1 when /proc/stat has no steal column
}

func noiseBetween(a, b hostSample) hostNoise {
	n := hostNoise{Wall: b.wall.Sub(a.wall), CPU: b.cpu - a.cpu, StealS: -1}
	if a.steal >= 0 && b.steal >= 0 {
		n.StealS = float64(b.steal-a.steal) / 100
	}
	return n
}

func (n hostNoise) String() string {
	steal := "n/a"
	if n.StealS >= 0 {
		steal = fmt.Sprintf("%.2fs", n.StealS)
	}
	return fmt.Sprintf("wall %.2fs, process cpu %.2fs, host steal %s", n.Wall.Seconds(), n.CPU.Seconds(), steal)
}

// runtimeTotals reads the Go runtime's cumulative heap-allocation
// bytes and completed GC cycles.
func runtimeTotals() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return sampleUint(s[0]), sampleUint(s[1])
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
