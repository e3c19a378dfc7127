package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeProbe measures the Go runtime over an interval: process CPU
// time, the share of CPU the garbage collector took, and the peak heap,
// sampled every few milliseconds.
type runtimeProbe struct {
	cpu0         time.Duration
	gc0, total0  float64
	stop         chan struct{}
	wg           sync.WaitGroup
	mu           sync.Mutex
	heapPeakByte uint64
}

var probeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{cpu0: cpuTime(), stop: make(chan struct{})}
	p.gc0, p.total0, p.heapPeakByte = readRuntime()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				_, _, h := readRuntime()
				p.mu.Lock()
				p.heapPeakByte = max(p.heapPeakByte, h)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// probeResult is what a runtimeProbe measured.
type probeResult struct {
	cpu        time.Duration
	gcCPUFrac  float64
	heapPeakMB float64
}

// end stops the sampler and returns the interval's measurements.
func (p *runtimeProbe) end() probeResult {
	close(p.stop)
	p.wg.Wait()
	gc, total, h := readRuntime()
	r := probeResult{cpu: cpuTime() - p.cpu0, heapPeakMB: float64(max(p.heapPeakByte, h)) / (1 << 20)}
	if d := total - p.total0; d > 0 {
		r.gcCPUFrac = (gc - p.gc0) / d
	}
	return r
}
