package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks (the "inclusive" method); NaN-free inputs only.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stolenSeconds is the host's cumulative CPU steal across all CPUs, in
// seconds: time the hypervisor ran other guests while this one wanted
// to run (the eighth field of /proc/stat's cpu line, in USER_HZ ticks).
// It is a diagnostic for the run-to-run noise on shared hosts; 0 where
// /proc/stat is unavailable.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// stopwatch times work on a shared host. seconds is the wall time since
// start minus the CPU time the hypervisor stole from this VM meanwhile,
// per CPU: the time the work would have taken had it kept the CPUs it
// asked for. Steal only accrues on a CPU that wants to run, so the
// subtraction never exceeds what the work lost; it undercounts when
// fewer than all CPUs were busy.
type stopwatch struct {
	start  time.Time
	stolen float64
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), stolen: stolenSeconds()} }

func (s stopwatch) seconds() float64 {
	return time.Since(s.start).Seconds() - (stolenSeconds()-s.stolen)/float64(runtime.NumCPU())
}
