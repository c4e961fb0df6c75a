package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: each power
// of two is split into 128 equal buckets, so a reported quantile is
// within 1/128 of the true sample. metrics.Histogram is log₂ and too
// coarse for a 10 % regression bound. Not safe for concurrent use:
// every client goroutine owns its own and they are merged afterwards.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 128 // buckets per power of two
	histMaxBits = 40  // values are clamped below 2^40 ns (~18 min)
	histBuckets = 2*histSub + (histMaxBits-8)*histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(v) - 8
	return 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
}

// histBounds is the value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < 2*histSub {
		return uint64(i), uint64(i) + 1
	}
	i -= 2 * histSub
	shift := i/histSub + 1
	m := uint64(i%histSub + histSub)
	return m << shift, (m + 1) << shift
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (the midpoint of the
// bucket holding it) and whether it may be reported: a percentile is
// reported only when at least ten samples lie beyond it.
func (h *hist) quantile(q float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum > target {
			lo, hi := histBounds(i)
			return float64(lo+hi-1) / 2, float64(h.n)*(1-q) >= 10
		}
	}
	return 0, false
}
