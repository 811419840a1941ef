package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// lagLimit is the load generator's own health bound: an open-loop phase whose
// p99 send lateness (beyond what a busy worker explains) exceeds it
// measured the load generator, not the server, and its operations count
// as failed instead of as latencies. On the 2-vCPU reference VM a
// nanosleep wake-up from an idle vCPU is late by ~70µs at p50 but by
// 0.5–3ms at p99, so the bound sits above that.
const lagLimit = 5 * time.Millisecond

// openResult is one open-loop phase at a fixed arrival rate.
type openResult struct {
	lat    samples // completion minus scheduled send time
	lag    samples // send time minus max(scheduled time, worker free)
	sent   int
	failed int
}

// openLoop sends rate×dur operations on a fixed schedule from workers
// goroutines sharing one arrival sequence, and records each operation's
// service time (send to the completion time do returns, which excludes
// do's own output checks) and the generator's own lag: the time
// from the moment the operation could have been sent (it was due and a
// worker was free) to its actual send, which comes from the generator's
// sleeps and scheduling, not from the server.
//
// Latencies are then timed from each operation's scheduled send time by
// replaying the arrivals, in schedule order, over the same number of
// punctual virtual workers: an operation starts at its due time or when
// the earliest virtual worker frees up, and takes its measured service
// time. A stall is thus charged to every arrival queued behind it, while
// the generator's wake-up lag and its effect on which worker took which
// arrival stay out of the latency.
//
// Sub-2ms waits use nanosleep on the worker's thread rather than
// time.Sleep, whose sub-millisecond sleeps round up to the runtime's
// millisecond poll granularity when the process is otherwise idle.
func openLoop(rate float64, dur time.Duration, workers int, do func(w, i int) (time.Time, error)) *openResult {
	n := max(1, int(rate*dur.Seconds()))
	res := &openResult{sent: n}
	service := make([]time.Duration, n)
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due(i))
				waitUntil(at)
				sent := time.Now()
				res.lag.add(sent.Sub(later(at, free)))
				done, err := do(w, i)
				if err != nil {
					failed.Add(1)
				}
				service[i] = done.Sub(sent)
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	res.failed = int(failed.Load())

	vfree := make([]time.Duration, workers)
	for i, svc := range service {
		w := slices.Index(vfree, slices.Min(vfree))
		vfree[w] = max(due(i), vfree[w]) + svc
		res.lat.add(vfree[w] - due(i))
	}
	return res
}

// closedLoop runs do back to back on workers goroutines until dur has
// passed and returns the operations completed in each interval of it.
func closedLoop(dur, interval time.Duration, workers int, do func(w int) error) []int64 {
	done := make([]atomic.Int64, max(1, int(dur/interval)))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				do(w)
				i := int(time.Since(start) / interval)
				if i >= len(done) {
					return
				}
				done[i].Add(1)
			}
		}()
	}
	wg.Wait()
	counts := make([]int64, len(done))
	for i := range done {
		counts[i] = done[i].Load()
	}
	return counts
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 1500*time.Microsecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
		}
	}
}

// lagP99 is the generator's p99 lateness; zero with no samples.
func (r *openResult) lagP99() time.Duration {
	v := r.lag.sorted()
	if len(v) == 0 {
		return 0
	}
	return time.Duration(quantile(v, 0.99))
}

// healthy reports whether the generator kept to its schedule.
func (r *openResult) healthy() bool { return r.lagP99() <= lagLimit }
