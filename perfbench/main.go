// Command perfbench is the repository benchmark. It drives the library
// and in-process servers built exactly as `fsmgen serve` builds them,
// over seeded workloads, checks every output, and prints the end-to-end
// metrics (untraced) or the per-layer metrics and layer ladder (traced)
// as one JSON object on its last line of output. run.py builds and runs
// it; README.md describes the workloads and metrics.
//
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
//
// It runs from the repository root: it reads the manifest, the commit
// r=4 generated source and the fleetsim scenarios and goldens from
// there, and keeps its scratch files under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workDir holds every file the benchmark writes: stores, spans.
const workDir = ".bench_build/perfbench-work"

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow round (the process's first, say) does not
// decide it. The last round's state is what the run measures.
const setupRounds = 5

// The end-to-end metrics every workload reports (untraced). Each
// workload gives them its own meaning; see README.md for the mapping.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mP50        = "p50_ms"
	mHeap       = "peak_heap_mb"
)

var e2eUnits = map[string]string{
	mSetup: "s", mThroughput: "1/s", mP50: "ms", mHeap: "MB",
}

// layerUnits lists every per-layer metric a traced run reports.
var layerUnits = map[string]string{
	"core.generate_ms": "ms", "core.alloc_mb": "MB", "spec.compile_us": "us",
	"render.doc_s": "s", "render.dot_s": "s", "render.efsm_s": "s", "render.efsm-dot_s": "s",
	"render.go_s": "s", "render.text_s": "s", "render.xml_s": "s",
	"render.alloc_mb": "MB", "artifact.overhead_s": "s", "core.cache_hit_ratio": "ratio",
	"api.handler_hot_us": "us", "api.handler_304_us": "us", "http.wire_us": "us",
	"artifact.render_hot_ns": "ns", "artifact.hot_ratio": "ratio",
	"store.get_us": "us", "store.put_ms": "ms", "store.open_ms": "ms", "store.hit_ratio": "ratio",
	"api.handler_cold_ms": "ms", "core.generations": "count",
	"cluster.route_ns": "ns", "cluster.proxy_hop_ms": "ms", "cluster.proxied_ratio": "ratio",
	"cluster.replica_ratio": "ratio", "cluster.ingest_ms": "ms", "cluster.propagate_sends": "count",
	"cluster.send_failures": "count",
	"api.check_ns_per_line": "ns", "trace.jsonl_lines_per_s": "1/s", "trace.regex_lines_per_s": "1/s",
	"runtime.deliver_ns": "ns", "fleetsim.events_per_s": "1/s", "driver.lag_p99_ms": "ms",
}

// bench is one workload run: its inputs, counters and results.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil when untraced
	u        *universe
	inject   delays

	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string

	e2e      map[string]float64
	layers   map[string]float64
	ladderIn map[string]float64 // workload-side ladder inputs, ns per op
	ladder   []rung
	// offLadder are layer figures printed with the ladder that no rung
	// encloses, so no delta applies to them.
	offLadder []rung
}

// rung is one step of a workload's layer ladder, outermost first.
type rung struct {
	name  string
	value float64 // ns per operation
}

// delays inject a fixed delay at a seam; zero except in the
// attribution test.
type delays struct {
	handlerDelay, proxyDelay time.Duration
}

func newBench(workload string, seed int64, seconds time.Duration, tr *tracer, u *universe) *bench {
	return &bench{workload: workload, seed: seed, seconds: seconds, tr: tr, u: u,
		e2e: map[string]float64{}, layers: map[string]float64{}, ladderIn: map[string]float64{}}
}

func (b *bench) seams() *seams { return &seams{tr: b.tr, delays: b.inject} }

func (b *bench) ok() { b.attempted.Add(1) }

// fail counts one failed operation or failed output check.
func (b *bench) fail(err error) {
	b.attempted.Add(1)
	b.reject(1, err)
}

// reject marks n operations already counted as attempted as failed.
func (b *bench) reject(n int, err error) {
	b.failed.Add(int64(n))
	b.mu.Lock()
	if len(b.errs) < 10 {
		b.errs = append(b.errs, err.Error())
	}
	b.mu.Unlock()
}

// check counts one operation, failed when err is non-nil.
func (b *bench) check(err error) {
	if err != nil {
		b.fail(err)
		return
	}
	b.ok()
}

// dir names a scratch directory of this run; inDir removes dir("").
func (b *bench) dir(name string) string {
	return filepath.Join(workDir, fmt.Sprintf("%s-%d", b.workload, os.Getpid()), name)
}

// inDir runs fn and removes the run's scratch directory after it.
func inDir(b *bench, fn func(*bench) error) error {
	defer os.RemoveAll(b.dir(""))
	return fn(b)
}

var workloads = map[string]func(*bench) error{
	"codegen": runCodegen,
	"serve":   runServe,
	"ring":    runRing,
	"monitor": runMonitor,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: codegen, serve, ring or monitor")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics, spans and the layer ladder")
		manifest = flag.Bool("write-manifest", false, "render the artefact universe and rewrite "+manifestPath)
	)
	flag.Parse()
	if *manifest {
		return writeManifest()
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	u, err := loadUniverse()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dur := time.Duration(*seconds * float64(time.Second))
	b := newBench(*workload, *seed, dur, nil, u)
	if err := inDir(b, fn); err != nil {
		return err
	}
	printE2E(b)
	out := result{Correct: b.failed.Load() == 0, Attempted: b.attempted.Load(), Failed: b.failed.Load(),
		Metrics: map[string]metric{}}
	if *traced == 0 {
		for name, unit := range e2eUnits {
			out.Metrics[name] = metric{b.e2e[name], unit}
		}
	} else {
		tb := newBench(*workload, *seed, dur, newTracer(), u)
		if err := inDir(tb, fn); err != nil {
			return err
		}
		b.errs = append(b.errs, tb.errs...)
		fmt.Println("traced run:")
		printE2E(tb)
		printOverhead(b, tb)
		if err := inDir(tb, probeLayers); err != nil {
			return err
		}
		printLadder(tb)
		spansPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := tb.tr.write(spansPath); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s (%d dropped)\n", len(tb.tr.spans), spansPath, tb.tr.dropped)
		out.Correct = out.Correct && tb.failed.Load() == 0
		out.Attempted += tb.attempted.Load()
		out.Failed += tb.failed.Load()
		for name, unit := range layerUnits {
			out.Metrics[name] = metric{tb.layers[name], unit}
		}
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printE2E(b *bench) {
	var parts []string
	for _, n := range slices.Sorted(maps.Keys(e2eUnits)) {
		parts = append(parts, fmt.Sprintf("%s=%.4g%s", n, b.e2e[n], e2eUnits[n]))
	}
	fmt.Printf("%s seed %d: %s; attempted %d failed %d\n", b.workload, b.seed,
		strings.Join(parts, " "), b.attempted.Load(), b.failed.Load())
}

// printOverhead reports tracing overhead: traced minus untraced end-to-end
// results of the same workload and seed in the same process.
func printOverhead(b, tb *bench) {
	fmt.Println("tracing overhead (traced - untraced):")
	for _, k := range slices.Sorted(maps.Keys(e2eUnits)) {
		d := tb.e2e[k] - b.e2e[k]
		fmt.Printf("  %-18s %+.4g %s (%+.1f%%)\n", k, d, e2eUnits[k], 100*d/b.e2e[k])
	}
}

// printLadder prints the workload's rungs, outermost first, with the
// delta each adjacent pair attributes to the layer between them, then
// the self time of every span name.
func printLadder(b *bench) {
	fmt.Printf("layer ladder (%s):\n", b.workload)
	fmt.Printf("  %-34s %14s %14s\n", "rung", "per op", "delta to next")
	for i, r := range b.ladder {
		delta := "-"
		if i+1 < len(b.ladder) {
			delta = fmtNs(r.value - b.ladder[i+1].value)
		}
		fmt.Printf("  %-34s %14s %14s\n", r.name, fmtNs(r.value), delta)
	}
	for _, r := range b.offLadder {
		fmt.Printf("  off the ladder: %-34s %14s\n", r.name, fmtNs(r.value))
	}
	self := selfTimes(b.tr.snapshot())
	for _, name := range slices.Sorted(maps.Keys(self)) {
		v := self[name]
		fmt.Printf("  span %-12s n=%-7d self median %s\n", name, len(v), fmtNs(median(v)))
	}
}

func fmtNs(ns float64) string {
	return time.Duration(ns).String()
}
