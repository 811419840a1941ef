package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"asagen/internal/fleetsim"
	"asagen/internal/trace"
)

// The monitored machine is commit r=4. FREE and NOT_FREE toggle one
// component and never finish it, so a trace of them is as long as the
// benchmark wants, and its verdict follows from its length alone.
const (
	stateStart = "F/0/F/0/F/F/F"
	stateFree  = "F/0/F/0/F/T/F"
	unknownMsg = "BOGUS"
)

// traceCase is one generated trace with its verdict known by
// construction.
type traceCase struct {
	format string
	body   []byte
	want   trace.Report
}

// makeTrace builds a trace of n lines alternating FREE/NOT_FREE. When
// inject > 0 the unknown message sits at that line: checked with
// keep_going it is the one violation, and the other n-1 lines are
// accepted.
func makeTrace(format string, n, inject int) traceCase {
	var buf bytes.Buffer
	msgs := 0
	for line := 1; line <= n; line++ {
		msg := unknownMsg
		if line != inject {
			msg = "FREE"
			if msgs%2 == 1 {
				msg = "NOT_FREE"
			}
			msgs++
		}
		if format == trace.FormatJSONL {
			fmt.Fprintf(&buf, "{\"msg\":%q}\n", msg)
		} else {
			fmt.Fprintf(&buf, "12:00:%02d.%03d member-0 recv %s from member-1\n", line/1000%60, line%1000, msg)
		}
	}
	want := trace.Report{Lines: n, Events: n, Accepted: msgs, FinalState: stateStart}
	if msgs%2 == 1 {
		want.FinalState = stateFree
	}
	if inject > 0 {
		want.Violations, want.FirstViolation = 1, inject
	}
	return traceCase{format: format, body: buf.Bytes(), want: want}
}

// traceCases generates the monitor's traces: jsonl and regex, lengths
// spread evenly over 500–1500 lines, every third with one unknown
// message. The lengths are the same for every seed, so seeds compare;
// the seed orders the traces and places the unknown messages.
func traceCases(seed int64, count int) []traceCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]traceCase, count)
	for i := range out {
		format := trace.FormatJSONL
		if i%2 == 1 {
			format = trace.FormatRegex
		}
		n := 500 + 1000*i/(count-1)
		inject := 0
		if i%3 == 0 {
			inject = 2 + rng.Intn(n-1)
		}
		out[i] = makeTrace(format, n, inject)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkOnce posts one trace to /check and compares the SSE summary with
// the known verdict.
func checkOnce(c *http.Client, url string, tc traceCase, id uint64) error {
	q := "?r=4&keep_going=1&format=" + tc.format
	req, err := http.NewRequest(http.MethodPost, url+"/v1/models/commit/check"+q, bytes.NewReader(tc.body))
	if err != nil {
		return err
	}
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST check: status %d", resp.StatusCode)
	}
	want := trace.Terminal(tc.want, nil).AppendJSON(nil)
	sc := bufio.NewScanner(resp.Body)
	events, summary := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			events++
			summary = bytes.Equal(line, []byte("event: summary"))
		case summary && bytes.HasPrefix(line, []byte("data: ")):
			if got := line[len("data: "):]; !bytes.Equal(got, want) {
				return fmt.Errorf("check summary %s, want %s", got, want)
			}
			if events != tc.want.Lines+1 {
				return fmt.Errorf("check streamed %d events for %d lines", events, tc.want.Lines)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("check stream ended without a summary after %d events", events)
}

// checkShare is the part of a monitor run spent on /check streams; the
// rest runs fleetsim passes.
const checkShare = 0.7

// monitorSetupRounds stands in for setupRounds here: one monitor set-up
// takes about 40 ms and varies by ±25% from round to round, so a steady
// median needs more rounds, which still take under a second.
const monitorSetupRounds = 15

// runMonitor posts long traces to /check in a closed loop, one stream at
// a time, then runs passes over the fleetsim scenarios. Generation is
// cached after set-up, so the trace monitor, the runtime and the SSE
// path do the work.
func runMonitor(b *bench) error {
	sm := b.seams()
	cases := traceCases(b.seed, 64)
	c := newClient()
	var (
		n         *node
		scenarios []fleetScenario
		setups    []float64
	)
	for i := range monitorSetupRounds {
		if n != nil {
			if err := n.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		ln, url, err := listen()
		if err != nil {
			return err
		}
		if n, err = startNode(b.dir(fmt.Sprintf("store%d", i)), ln, url, nil, sm); err != nil {
			return err
		}
		b.check(checkOnce(c, url, cases[0], 0))
		if scenarios, err = loadFleet(); err != nil {
			return err
		}
		for _, fs := range scenarios { // the fleet's warm-up pass
			_, err := fleetRun(context.Background(), fs)
			b.check(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e[mSetup] = median(setups)

	var (
		lat     samples
		perLine []float64
		byID    = map[uint64]int{}
	)
	heap := startHeapSampler()
	checkTime := time.Duration(checkShare * float64(b.seconds))
	for i, deadline := 0, time.Now().Add(checkTime); time.Now().Before(deadline); i++ {
		tc := cases[i%len(cases)]
		id := b.tr.newID()
		start := time.Now()
		err := checkOnce(c, n.url, tc, id)
		d := time.Since(start)
		b.tr.add(id, 0, "check", strconv.FormatUint(id, 10), start, start.Add(d))
		b.check(err)
		lat.add(d)
		perLine = append(perLine, float64(d)/float64(tc.want.Lines))
		if b.tr != nil {
			byID[id] = tc.want.Lines
		}
	}
	fleetPasses(b, scenarios, b.seconds-checkTime)
	b.e2e[mHeap] = heap.finish()
	b.ladderIn["check_line"] = median(perLine)
	b.e2e[mThroughput] = 1e9 / b.ladderIn["check_line"] // lines/s of the median stream
	if err := setLatency(b, &lat); err != nil {
		return err
	}
	if b.tr != nil {
		var handler []float64
		for _, s := range b.tr.snapshot() {
			if s.Name == "handler" && byID[s.Parent] > 0 {
				handler = append(handler, float64(s.End-s.Start)/float64(byID[s.Parent]))
			}
		}
		b.layers["api.check_ns_per_line"] = median(handler)
		b.ladderIn["handler_line"] = median(handler)
	}
	st := n.p.Stats()
	b.layers["core.generations"] = float64(st.Machine.Generations)
	b.layers["core.cache_hit_ratio"] = float64(st.Machine.Hits) / float64(max(st.Machine.Hits+st.Machine.Misses, 1))
	return n.stop()
}

// fleetScenario is one checked-in fleetsim scenario and its golden report.
type fleetScenario struct {
	name   string
	sc     fleetsim.Scenario
	golden []byte
}

func loadFleet() ([]fleetScenario, error) {
	paths, err := filepath.Glob("examples/fleetsim/*.json")
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no fleetsim scenarios under examples/fleetsim: %v", err)
	}
	var out []fleetScenario
	for _, p := range paths {
		sc, err := fleetsim.Load(p)
		if err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(filepath.Join("examples/fleetsim/golden", filepath.Base(p)))
		if err != nil {
			return nil, err
		}
		out = append(out, fleetScenario{filepath.Base(p), sc, golden})
	}
	return out, nil
}

// fleetRun runs one scenario and compares its report with the golden.
func fleetRun(ctx context.Context, fs fleetScenario) (*fleetsim.Report, error) {
	rep, err := fleetsim.Run(ctx, fs.sc, 1)
	if err != nil {
		return nil, err
	}
	data, err := rep.MarshalCanonical()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(data, fs.golden) {
		return rep, fmt.Errorf("fleetsim %s: report differs from its golden", fs.name)
	}
	return rep, nil
}

// fleetPasses runs passes over the checked-in fleetsim scenarios in a
// seeded order, one scenario at a time, for dur, checking every report
// against its golden byte for byte. It reports the fleet's instances and
// events per second as medians over passes.
func fleetPasses(b *bench, scenarios []fleetScenario, dur time.Duration) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	var instRates, eventRates []float64
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		var instances, events int
		var busy time.Duration
		for _, i := range rng.Perm(len(scenarios)) {
			fs := scenarios[i]
			start := time.Now()
			rep, err := fleetRun(ctx, fs)
			d := time.Since(start)
			b.tr.add(0, 0, "scenario", fs.name, start, start.Add(d))
			b.check(err)
			busy += d
			instances += fs.sc.Instances
			if rep != nil {
				events += int(rep.Events)
			}
		}
		instRates = append(instRates, float64(instances)/busy.Seconds())
		eventRates = append(eventRates, float64(events)/busy.Seconds())
	}
	b.layers["fleetsim.events_per_s"] = median(eventRates)
	fmt.Printf("monitor fleet: %d passes, %.0f instances/s, %.0f events/s (medians over passes)\n",
		len(instRates), median(instRates), median(eventRates))
}
