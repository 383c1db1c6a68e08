package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"syscall"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of v (0 for no samples).
// v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle samples of an even count, so a median
// over repetitions is well defined for any repetition count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// cpuSeconds is the process's user+system CPU time so far, read from the
// process CPU clock: getrusage is sampled at the scheduler tick on kernels
// built with tick accounting, which alone put ±8% on a three-second lane.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from the
// current resident set, so each repetition reports a peak of its own and
// the run reports their median: the lifetime peak of a small-heap workload
// is one GC overshoot out of thousands of cycles, and moved 15–22 MB
// between runs of the same code. Where the kernel refuses the write the
// mark stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024
		}
	}
	return 0
}
