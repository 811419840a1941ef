package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// samples collects one timing per operation. Reports always carry the
// sample count, and a tail percentile is only quoted when at least ten
// samples lie beyond it.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) { s.addValue(float64(d)) }

func (s *samples) addValue(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.v)
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of an ascending slice; NaN
// when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	return quantile(slices.Sorted(slices.Values(v)), 0.5)
}

// tailLevels are the percentiles a summary may quote, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailLevel returns the highest quotable percentile for n samples: one
// with at least ten samples beyond it (so p99 needs 1000 samples).
func tailLevel(n int) (float64, bool) {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// summary is a timing distribution as the benchmark reports it.
type summary struct {
	N      int
	Median float64
	Tail   float64 // value at TailQ; NaN when no percentile qualifies
	TailQ  float64
}

func summarize(s *samples) summary {
	v := s.sorted()
	sum := summary{N: len(v), Median: quantile(v, 0.5), Tail: math.NaN()}
	if q, ok := tailLevel(len(v)); ok {
		sum.TailQ, sum.Tail = q, quantile(v, q)
	}
	return sum
}

// heapSampler records the peak live heap in fixed windows. The reported
// peak is the median of the window maxima, which is far steadier than a
// single run-wide maximum that depends on one GC cycle's timing.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak []float64
}

const heapWindow = 500 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	windowEnd := time.Now().Add(heapWindow)
	var cur float64
	for {
		select {
		case <-h.stop:
			if cur > 0 {
				h.mu.Lock()
				h.peak = append(h.peak, cur)
				h.mu.Unlock()
			}
			return
		case now := <-tick.C:
			metrics.Read(sample)
			cur = max(cur, float64(sample[0].Value.Uint64()))
			if now.After(windowEnd) {
				h.mu.Lock()
				h.peak = append(h.peak, cur)
				h.mu.Unlock()
				cur, windowEnd = 0, now.Add(heapWindow)
			}
		}
	}
}

// finish stops the sampler and returns the median window peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peak) / (1 << 20)
}
