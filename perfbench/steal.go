package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// stealLog samples the host's cumulative steal time — CPU time the
// hypervisor gave to other guests while this VM's vCPUs wanted to run —
// from /proc/stat while a measurement runs. A latency window that steal
// overlapped measures the neighbours, not the program; windowSet prefers
// the windows it left alone.
type stealLog struct {
	mu      sync.Mutex
	at      []time.Time
	ticks   []uint64
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
}

// stealEvery is the sampling period; /proc/stat counts in 10 ms ticks.
const stealEvery = 20 * time.Millisecond

// startStealLog starts sampling; it returns nil where /proc/stat has no
// steal column, and a nil log treats every window as undisturbed.
func startStealLog() *stealLog {
	if _, ok := readSteal(); !ok {
		return nil
	}
	l := &stealLog{stop: make(chan struct{}), stopped: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.stopped)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				l.sample()
				return
			case <-t.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	v, ok := readSteal()
	if !ok {
		return
	}
	l.mu.Lock()
	l.at = append(l.at, time.Now())
	l.ticks = append(l.ticks, v)
	l.mu.Unlock()
}

// close stops the sampler and waits for it to exit; later calls do nothing.
func (l *stealLog) close() {
	if l == nil {
		return
	}
	l.once.Do(func() {
		close(l.stop)
		<-l.stopped
	})
}

// stolen reports whether steal time accrued between from and to: the
// count at the first sample at or after to exceeds the count at the last
// sample at or before from.
func (l *stealLog) stolen(from, to time.Time) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lo, hi := -1, -1
	for i, t := range l.at {
		if !t.After(from) {
			lo = i
		}
		if hi < 0 && !t.Before(to) {
			hi = i
		}
	}
	if lo < 0 || hi < 0 {
		return true // not covered by samples: assume the worst
	}
	return l.ticks[hi] > l.ticks[lo]
}

// total returns the steal ticks accrued over the log's whole span.
func (l *stealLog) total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ticks) == 0 {
		return 0
	}
	return l.ticks[len(l.ticks)-1] - l.ticks[0]
}

// readSteal returns the steal column (the eighth value) of /proc/stat's
// aggregate cpu line.
func readSteal() (uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(string(f[8]), 10, 64)
	return v, err == nil
}
