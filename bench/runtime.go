package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runConfig is what the command line asks of one run.
type runConfig struct {
	m        *manifest
	start    time.Time // process start; setup_s runs from here
	workload string
	seed     int64
	seconds  float64 // measured time, divided among the workload's windows
	traced   bool
	traceOut string // Chrome trace_event file of a traced run, optional
}

// dur returns the given share of the run's measured time.
func (rc runConfig) dur(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

// setupDone files setup_s: process start to the first timed sample, taken
// at firstSample. It counts everything a run pays before it measures —
// input generation, topology build, joins, model fits, and the warm-up.
func (rc runConfig) setupDone(res *result, firstSample time.Time) {
	res.set(mSetup, firstSample.Sub(rc.start).Seconds())
}

// warm scales a warm-up of d, its length in a run of the manifest's
// run_seconds, down with a shorter run (the self-tests' smoke runs).
func (rc runConfig) warm(d time.Duration) time.Duration {
	return min(d, time.Duration(float64(d)*rc.seconds/float64(rc.m.RunSeconds)))
}

// runtimeProbe reads the Go runtime's counters at both ends of the
// measured interval.
type runtimeProbe struct {
	start, end  time.Time
	alloc0, gc0 float64
	alloc1, gc1 float64
	stopped     bool
}

// readRuntime returns the heap bytes allocated and the GC CPU seconds so
// far.
func readRuntime() (allocBytes, gcCPUSeconds float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		gcCPUSeconds = samples[1].Value.Float64()
	}
	return allocBytes, gcCPUSeconds
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{start: time.Now()}
	p.alloc0, p.gc0 = readRuntime()
	return p
}

// stop ends the interval; only the first call counts.
func (p *runtimeProbe) stop() {
	if !p.stopped {
		p.stopped, p.end = true, time.Now()
		p.alloc1, p.gc1 = readRuntime()
	}
}

// report files the runtime.* metrics for an interval (ended now, unless
// stop was called) that attempted ops operations.
func (p *runtimeProbe) report(res *result, ops int64) {
	p.stop()
	wall := p.end.Sub(p.start).Seconds()
	if ops > 0 {
		res.set("runtime.alloc_bytes_per_op", (p.alloc1-p.alloc0)/float64(ops))
	}
	if wall > 0 {
		res.set("runtime.gc_cpu_share", (p.gc1-p.gc0)/(wall*float64(gomaxprocs())))
	}
	res.set("runtime.gomaxprocs", float64(gomaxprocs()))
	res.set("runtime.peak_rss_mb", peakRSSMB())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux), or 0 where the call fails.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// overheadPct is trace.overhead_pct for a headline that is better when
// higher (throughput) or lower (latency).
func overheadPct(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherIsBetter {
		return (untraced - traced) / untraced * 100
	}
	return (traced - untraced) / untraced * 100
}

// gomaxprocs is the run's GOMAXPROCS, which the benchmark never sets.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
