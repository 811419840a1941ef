package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"asagen"
)

// table1 is the paper's Table 1: final state counts of the commit
// protocol machine by replication factor.
var table1 = map[int]int{4: 33, 7: 85, 13: 261, 25: 901, 46: 2945}

// commitGoldenPath is the checked-in generated source for commit r=4.
const commitGoldenPath = "internal/commit/commitfsm4/machine.go"

// runCodegen is development-time generation: closed loop, one caller.
// Each pass builds a fresh SDK client, registers the inline spec and
// streams every model × SweepParams × format with one render job, so
// consecutive results are one artefact apart and the gap between them is
// that artefact's latency.
func runCodegen(b *bench) error {
	golden, err := os.ReadFile(commitGoldenPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var setups []float64
	for range setupRounds {
		st, err := codegenPass(ctx, b, golden, nil, 0)
		if err != nil {
			return err
		}
		setups = append(setups, (st.prep + st.stream).Seconds())
	}
	b.e2e[mSetup] = median(setups)

	var (
		lat                 samples
		passes, rates       []float64
		hits, lookups, gens int64
	)
	heap := startHeapSampler()
	for deadline := time.Now().Add(b.seconds); time.Now().Before(deadline); {
		id := b.tr.newID()
		st, err := codegenPass(ctx, b, golden, &lat, id)
		if err != nil {
			return err
		}
		b.tr.add(id, 0, "pass", "", st.start, st.start.Add(st.stream))
		passes = append(passes, float64(st.stream))
		rates = append(rates, float64(st.n)/st.stream.Seconds())
		hits += st.stats.CacheHits
		lookups += st.stats.CacheHits + st.stats.CacheMisses
		gens += st.stats.Generations
	}
	b.e2e[mHeap] = heap.finish()
	// Rates are medians over units of work (passes here), so a slow
	// stretch of the shared host moves one unit, not the figure.
	b.e2e[mThroughput] = median(rates)
	if err := setLatency(b, &lat); err != nil {
		return err
	}
	b.layers["core.cache_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	b.layers["core.generations"] = float64(gens)
	b.ladderIn["pass"] = median(passes)
	return nil
}

type passStats struct {
	n     int
	stats asagen.Stats
	start time.Time     // when the stream started
	prep  time.Duration // client construction and spec registration
	// stream is the Client.Stream loop alone, which is all the pass
	// times: the results are checked after it ends.
	stream time.Duration
}

// codegenPass runs one cold pass, then checks its outputs: every
// artefact against the manifest, Table 1 and the checked-in generated
// source (both from the pass's cached machines).
func codegenPass(ctx context.Context, b *bench, golden []byte, lat *samples, parent uint64) (passStats, error) {
	begin := time.Now()
	c, err := newSpecClient(b.u.spec, asagen.WithJobs(1))
	if err != nil {
		return passStats{}, err
	}
	reqs := sweepRequests(c)
	results := make([]asagen.Result, 0, len(reqs))
	ends := make([]time.Time, 0, len(reqs))
	start := time.Now()
	for res := range c.Stream(ctx, reqs) {
		ends = append(ends, time.Now())
		results = append(results, res)
	}
	st := passStats{n: len(reqs), start: start, prep: start.Sub(begin), stream: time.Since(start)}
	last := start
	for i, res := range results {
		if lat != nil {
			lat.add(ends[i].Sub(last))
			b.tr.add(0, parent, "artifact", res.Model+"/"+res.Format, last, ends[i])
		}
		last = ends[i]
		if res.Err != nil {
			b.fail(res.Err)
			continue
		}
		b.check(b.u.check(item{res.Model, res.Param, res.Format}, res.Data))
	}
	for r, want := range table1 {
		m, err := c.Generate(ctx, "commit", asagen.WithParam(r))
		if err == nil && m.Stats().FinalStates != want {
			err = fmt.Errorf("table 1: commit r=%d has %d final states, the paper %d", r, m.Stats().FinalStates, want)
		}
		b.check(err)
	}
	m, err := c.Generate(ctx, "commit", asagen.WithParam(4))
	if err == nil {
		var res asagen.Result
		if res, err = m.Render("go", asagen.WithGoPackage("commitfsm4")); err == nil && !bytes.Equal(res.Data, golden) {
			err = fmt.Errorf("commit r=4 go render differs from %s", commitGoldenPath)
		}
	}
	b.check(err)
	st.stats = c.Stats()
	return st, nil
}

// setLatency sets the p50 end-to-end metric and prints the distribution:
// sample count, median, and the highest percentile with ten samples
// beyond it (a p99 only from 1000 samples or more). The tail is printed,
// not gated: on the shared reference VM its run-to-run spread was far
// wider than any bound a regression gate can use (see README.md).
func setLatency(b *bench, lat *samples) error {
	s := summarize(lat)
	if s.N == 0 {
		return fmt.Errorf("%s: no latency samples", b.workload)
	}
	b.e2e[mP50] = s.Median / 1e6
	tail := "no tail percentile (fewer than 40 samples)"
	if s.TailQ > 0 {
		tail = fmt.Sprintf("p%g %s", 100*s.TailQ, fmtNs(s.Tail))
	}
	if s.N >= 1000 && s.TailQ > 0.99 {
		tail = fmt.Sprintf("p99 %s %s", fmtNs(quantile(lat.sorted(), 0.99)), tail)
	}
	fmt.Printf("%s latency: n=%d p50 %s %s\n", b.workload, s.N, fmtNs(s.Median), tail)
	return nil
}
