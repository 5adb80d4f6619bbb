package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// xs is not modified. An empty xs gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based position of the nearest-rank q-quantile among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailSamples is how many of n samples lie strictly beyond the nearest-rank
// q-quantile — the sample count a reported percentile rests on.
func tailSamples(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// share returns part/(part+rest): a hit ratio from hit and miss counts, a
// dispatch ratio from dispatched and inline chunks. Both zero gives NaN —
// the ratio is undefined, not zero.
func share(part, rest int64) float64 {
	if part+rest == 0 {
		return math.NaN()
	}
	return float64(part) / float64(part+rest)
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseCPUTimes reads the aggregate "cpu" line of a /proc/stat image. The
// total counts user, nice, system, idle, iowait, irq, softirq and steal;
// guest time is already inside user and is not added twice.
func parseCPUTimes(stat string) (cpuTimes, error) {
	sc := bufio.NewScanner(strings.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu line has %d fields, want at least 9", len(f))
		}
		var t cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat: cpu field %d: %w", i+1, err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// readCPUTimes samples /proc/stat. Hosts without it (not Linux) report
// zero times, which stealFrac turns into a zero share.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	t, err := parseCPUTimes(string(b))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return cpuTimes{}
	}
	return t
}

// stealFrac is the share of machine CPU time the hypervisor stole between
// two samples.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// processCPU returns the user+sys CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
