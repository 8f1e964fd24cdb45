package main

import (
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram over nanoseconds: exact below
// 64 ns, then 64 buckets per power of two (each at most 1.6% wide). It
// replaces a per-request sample log, whose memory would grow with the
// request rate and show up in the workload's own peak RSS.
type latHist struct {
	counts [histBuckets]uint32
	n      uint64
}

const histBuckets = 59 * 64

func histBucket(ns uint64) int {
	if ns < 64 {
		return int(ns)
	}
	shift := bits.Len64(ns) - 7
	return (shift+1)*64 + int(ns>>shift) - 64
}

// histBounds returns bucket b's lower bound and width in nanoseconds.
func histBounds(b int) (lo, width float64) {
	if b < 64 {
		return float64(b), 1
	}
	shift := b/64 - 1
	v := uint64(b%64 + 64)
	return float64(v << shift), float64(uint64(1) << shift)
}

func (h *latHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, interpolating linearly
// inside the bucket that holds it. An empty histogram gives 0.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, width := histBounds(b)
			return (lo + width*(rank-cum+0.5)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return (lo + width) / 1e3
}
