package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is a reading of the Go runtime's and the process's cumulative
// counters; metrics are differences of two snapshots.
type hostSnap struct {
	at         time.Time
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration // user+system CPU time of the process
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		at: time.Now(), mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc,
		numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, cpu: cpuTime(),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // no CPU clock on this platform: CPU-based metrics read 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostDelta is what the process spent between two snapshots.
type hostDelta struct {
	wall, cpu, gcPause  time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
}

func (a hostSnap) until(b hostSnap) hostDelta {
	return hostDelta{
		wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, gcPause: time.Duration(b.pauseNs - a.pauseNs),
		mallocs: b.mallocs - a.mallocs, allocBytes: b.totalAlloc - a.totalAlloc,
		gcCycles: b.numGC - a.numGC,
	}
}

func (d hostDelta) plus(o hostDelta) hostDelta {
	return hostDelta{
		wall: d.wall + o.wall, cpu: d.cpu + o.cpu, gcPause: d.gcPause + o.gcPause,
		mallocs: d.mallocs + o.mallocs, allocBytes: d.allocBytes + o.allocBytes,
		gcCycles: d.gcCycles + o.gcCycles,
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB,
// zero where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// benchProcs is the GOMAXPROCS of the workload on the live goroutine
// transport, and the shard count of the sharded one: the machine's CPUs
// capped at 4, so generator threads never exceed nproc and a bigger box
// does not silently change a workload.
//
// The simulated workloads get GOMAXPROCS 1. On the classic event loop one
// goroutine runs at a time anyway, and a second P adds nothing but
// concurrent GC and cross-thread wake-ups, whose cost follows the shared
// machine's neighbours (measured on the 2-core dev box, p2p_small: 25%
// slower and a run-to-run spread of 6% instead of 1.3%); for the sharded
// engine see wl_scale.go.
func benchProcs() int { return min(runtime.NumCPU(), 4) }
