package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 0.75, true}, {999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		if q, ok := tailLevel(c.n); q != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "handler", Start: 50, End: 90}, // overlaps the first child
		{ID: 4, Parent: 2, Name: "proxy", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	if got := self["http"]; len(got) != 1 || got[0] != 20 {
		t.Errorf("http self = %v, want [20]", got)
	}
	if got := self["handler"]; len(got) != 2 || got[0] != 40 || got[1] != 40 {
		t.Errorf("handler self = %v, want [40 40]", got)
	}
}

func TestTraceVerdictByConstruction(t *testing.T) {
	tc := makeTrace("jsonl", 5, 3)
	if tc.want.Accepted != 4 || tc.want.FirstViolation != 3 || tc.want.FinalState != stateStart {
		t.Errorf("want = %+v", tc.want)
	}
}

// metricSpec is a metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T, path string) benchmarkDoc {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads, and every metric with the unit the program reports.
func TestBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkDoc(t, "../BENCHMARK.json")
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		listed []metricSpec
		units  map[string]string
	}{{doc.EndToEnd, e2eUnits}, {doc.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, u)
			}
		}
	}
}

// regressions lists the end-to-end metrics on which after is worse than
// before by more than the metric's bound in BENCHMARK.json.
func regressions(t *testing.T, before, after map[string]float64) []string {
	doc := readBenchmarkDoc(t, "BENCHMARK.json")
	var out []string
	for _, m := range doc.EndToEnd {
		change := (after[m.Name] - before[m.Name]) / before[m.Name]
		if m.Better == "higher" {
			change = -change
		}
		if change > m.Bound {
			out = append(out, m.Name)
		}
	}
	return out
}

// attribute names the rung whose own share of the ladder (its value
// minus the next rung's) grew the most between two runs.
func attribute(before, after []rung) string {
	self := func(l []rung, i int) float64 {
		if i+1 < len(l) {
			return l[i].value - l[i+1].value
		}
		return l[i].value
	}
	best, grew := "", math.Inf(-1)
	for i := range before {
		if d := self(after, i) - self(before, i); d > grew {
			best, grew = before[i].name, d
		}
	}
	return best
}

// TestAttribution injects a fixed delay at one seam and checks that the
// benchmark flags an end-to-end regression and that the layer ladder
// puts the delay on that seam's rung.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve and ring workloads twice each")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	u, err := loadUniverse()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, workload string, fn func(*bench) error, d delays) *bench {
		b := newBench(workload, 7, 2*time.Second, newTracer(), u)
		b.inject = d
		if err := inDir(b, fn); err != nil {
			t.Fatal(err)
		}
		if n := b.failed.Load(); n != 0 {
			t.Fatalf("%s: %d failed operations: %v", workload, n, b.errs)
		}
		buildLadder(b, 0, 0, 0, 1, 1)
		return b
	}
	for _, c := range []struct {
		workload string
		fn       func(*bench) error
		delay    delays
		metric   string
		rung     string
	}{
		{"serve", runServe, delays{handlerDelay: 300 * time.Microsecond}, mP50, "handler (hot 200)"},
		{"ring", runRing, delays{proxyDelay: 5 * time.Millisecond}, mThroughput, "proxy hop (to owner's headers)"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			base := run(t, c.workload, c.fn, delays{})
			slow := run(t, c.workload, c.fn, c.delay)
			flagged := regressions(t, base.e2e, slow.e2e)
			found := false
			for _, m := range flagged {
				found = found || m == c.metric
			}
			if !found {
				t.Errorf("flagged %v, want %s among them (before %v, after %v)", flagged, c.metric, base.e2e, slow.e2e)
			}
			if got := attribute(base.ladder, slow.ladder); got != c.rung {
				t.Errorf("delay attributed to %q, want %q (before %v, after %v)", got, c.rung, base.ladder, slow.ladder)
			}
		})
	}
}
