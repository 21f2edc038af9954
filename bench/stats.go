package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-quantile (0 <= p <= 1) of vals by linear
// interpolation between closest ranks; it sorts a copy. NaN for no data.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// best picks the repetition a metric reports: the smallest value when lower
// is better (times, costs), the largest otherwise (rates). The noise on a
// shared box only ever adds time, so the best repetition is the one least
// disturbed, and it repeats far better than the mean or the median.
func best(vals []float64, lowerIsBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	b := vals[0]
	for _, v := range vals[1:] {
		if (lowerIsBetter && v < b) || (!lowerIsBetter && v > b) {
			b = v
		}
	}
	return b
}

// firstTrue binary-searches the smallest i in [lo, hi] with pred(i) true,
// for a pred that is false up to some point and true from there on. It
// returns hi+1 when pred is false everywhere, and the first error pred hits.
func firstTrue(lo, hi int, pred func(int) (bool, error)) (int, error) {
	none := hi + 1
	for lo <= hi {
		mid := lo + (hi-lo)/2
		ok, err := pred(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if lo >= none {
		return none, nil
	}
	return lo, nil
}

// spread is the run-to-run dispersion the driver gates on: the distance
// between the first and third quartile as a share of the median, and the
// full range as a share of the median.
func spread(vals []float64) (iqr, rng float64) {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0, 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(med), (best(vals, false) - best(vals, true)) / math.Abs(med)
}

// quartiles matches Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), which is what the driver computes.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these units. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	pgrp       int
	cpuSeconds float64 // utime + stime
}

// parseProcStat parses one /proc/<pid>/stat line. The command name (field
// 2) is parenthesised and may itself contain spaces and parentheses, so the
// fixed fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); pgrp is field 5, utime 14, stime 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	pgrp, err := strconv.Atoi(f[2])
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: pgrp %q: %v", f[2], err)
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: utime %q: %v", f[11], err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: stime %q: %v", f[12], err)
	}
	return procStat{pgrp: pgrp, cpuSeconds: float64(utime+stime) / clockTick}, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// parseStatusKB extracts a "Key:   1234 kB" line from /proc/<pid>/status.
func parseStatusKB(status, key string) (float64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(f[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// procMemMB reads one memory line (VmRSS or VmHWM) of a live process in MB.
func procMemMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := parseStatusKB(string(b), key)
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
	}
	return kb / 1024, nil
}

// groupMembers lists the live processes whose process group is pgid.
func groupMembers(pgid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, err := readProcStat(pid); err == nil && st.pgrp == pgid {
			pids = append(pids, pid)
		}
	}
	return pids
}
