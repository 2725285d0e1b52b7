package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps a metric name to its value.
type values map[string]metric

func (m values) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the nearest-rank q-quantile of xs (0 for no
// samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the middle half of xs (its interquartile
// mean): as robust to a stalled quarter as the median, but it does not
// read a single sample's whole count. xs is sorted in place.
func midMean(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return mean(xs[n/4 : n-n/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	mallocs, bytes float64
	gcs            float64
}

type memMark runtime.MemStats

func markMem() *memMark {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return (*memMark)(&s)
}

func (m *memMark) since() memDelta {
	now := markMem()
	return memDelta{
		mallocs: float64(now.Mallocs - m.Mallocs),
		bytes:   float64(now.TotalAlloc - m.TotalAlloc),
		gcs:     float64(now.NumGC - m.NumGC),
	}
}

// peakRSSMB reads the high-water resident set (VmHWM) of a process
// from /proc ("self" for this one).
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the host's busy and stolen CPU time from /proc/stat.
// Stolen time is what the hypervisor gave to other guests while this
// one wanted to run: a run with much of it was disturbed.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuModel reads the host CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
