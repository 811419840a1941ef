package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	rt "asagen/internal/runtime"
	"asagen/internal/spec"
	"asagen/internal/store"
	"asagen/internal/trace"
)

// probeLayers measures, in every traced run, each layer in isolation by
// timing direct calls into its public functions on the sweep and the
// seeded traces. A per-layer value the traced workload itself produced
// takes precedence; a layer the workload never drives and no probe
// measures (ratios, counts, spans of other workloads) reads 0.
func probeLayers(b *bench) error {
	ctx := context.Background()
	set := func(name string, v float64) {
		if _, ok := b.layers[name]; !ok {
			b.layers[name] = v
		}
	}
	compiled, err := spec.ParseAndCompile(b.u.spec)
	if err != nil {
		return err
	}
	var compile samples
	for range 200 {
		start := time.Now()
		if _, err := spec.ParseAndCompile(b.u.spec); err != nil {
			return err
		}
		compile.add(time.Since(start))
	}
	set("spec.compile_us", summarize(&compile).Median/1e3)

	reg := models.Default().Clone()
	if err := reg.Add(compiled.Entry()); err != nil {
		return err
	}
	var (
		fams  []family
		reqs  []artifact.Request
		known = map[family]bool{}
	)
	for _, e := range b.u.sweep() {
		f := family{e.Model, e.Param}
		if !known[f] {
			known[f] = true
			fams = append(fams, f)
		}
		reqs = append(reqs, artifact.Request{Model: e.Model, Param: e.Param, Format: e.Format})
	}

	// core, render and the artifact pipeline over the whole sweep, in
	// alternating rounds: each figure is the median of its rounds, so the
	// process's warm-up and GC land on no single layer.
	var (
		gen              *genRound
		coreNs, renderNs []float64
		coreMB, renderMB []float64
		passNs           []float64
		perFormat        = map[string][]float64{}
	)
	for range probeRounds {
		if gen, err = probeGen(ctx, reg, fams, reqs); err != nil {
			return err
		}
		coreNs, renderNs = append(coreNs, gen.coreNs), append(renderNs, gen.renderNs)
		coreMB, renderMB = append(coreMB, gen.coreMB), append(renderMB, gen.renderMB)
		passNs = append(passNs, gen.passNs)
		for f, d := range gen.perFormat {
			perFormat[f] = append(perFormat[f], d)
		}
	}
	set("core.generate_ms", median(coreNs)/1e6)
	set("core.alloc_mb", median(coreMB))
	for _, f := range render.Formats() {
		set("render."+f+"_s", median(perFormat[f])/1e9)
	}
	set("render.alloc_mb", median(renderMB))
	// The pipeline's overhead is its pass minus the core and render time
	// of the same round.
	var overhead []float64
	for i := range passNs {
		overhead = append(overhead, passNs[i]-coreNs[i]-renderNs[i])
	}
	set("artifact.overhead_s", median(overhead)/1e9)
	machines, results := gen.machines, gen.results
	for _, res := range results {
		b.check(b.u.check(item{res.Request.Model, res.Request.Param, res.Request.Format}, res.Artifact.Data))
	}
	p := gen.p
	var hot samples
	for range 20 {
		for _, req := range reqs {
			start := time.Now()
			p.Render(ctx, req)
			hot.add(time.Since(start))
		}
	}
	set("artifact.render_hot_ns", summarize(&hot).Median)

	// store: put, reopen and verified get of the batch's artefacts.
	dir := b.dir("probe-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put, get, open samples
	keys := make([]store.Key, len(results))
	for i, res := range results {
		keys[i] = store.Key{Model: res.Request.Model, Param: res.Request.Param, Format: res.Request.Format}
		if !res.Fingerprint.IsZero() {
			keys[i].Fingerprint = res.Fingerprint.String()
		}
		start := time.Now()
		if err := st.Put(keys[i], res.Artifact.Data, sha256.Sum256(res.Artifact.Data), res.Artifact.MediaType, res.Artifact.Ext); err != nil {
			return err
		}
		put.add(time.Since(start))
	}
	for range 5 {
		if err := st.Close(); err != nil {
			return err
		}
		start := time.Now()
		if st, err = store.Open(dir); err != nil {
			return err
		}
		open.add(time.Since(start))
	}
	for range 3 {
		for i, k := range keys {
			start := time.Now()
			data, _, _, _, ok := st.Get(k)
			get.add(time.Since(start))
			if !ok || !bytes.Equal(data, results[i].Artifact.Data) {
				b.fail(fmt.Errorf("store probe: %v read back wrong bytes", k))
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	set("store.put_ms", summarize(&put).Median/1e6)
	set("store.open_ms", summarize(&open).Median/1e6)
	set("store.get_us", summarize(&get).Median/1e3)

	// trace and runtime: the monitor's seeded traces, in process.
	machine := machines[family{"commit", 4}]
	if machine == nil {
		return fmt.Errorf("commit r=4 is not in the sweep")
	}
	for _, format := range []string{trace.FormatJSONL, trace.FormatRegex} {
		mon, err := trace.NewMonitor(trace.WithTarget("", machine), trace.WithKeepGoing())
		if err != nil {
			return err
		}
		lines, busy := 0, time.Duration(0)
		for _, tc := range traceCases(b.seed, 64) {
			if tc.format != format {
				continue
			}
			dec, err := trace.NewDecoder(format, bytes.NewReader(tc.body), nil)
			if err != nil {
				return err
			}
			start := time.Now()
			rep, err := mon.Run(ctx, dec)
			busy += time.Since(start)
			if err == nil && rep != tc.want {
				err = fmt.Errorf("in-process %s monitor: %+v, want %+v", format, rep, tc.want)
			}
			b.check(err)
			lines += rep.Lines
		}
		set("trace."+format+"_lines_per_s", float64(lines)/busy.Seconds())
	}
	in, err := rt.New(machine, rt.NopHandler{})
	if err != nil {
		return err
	}
	const deliveries = 1_000_000
	start := time.Now()
	for i := range deliveries {
		msg := "FREE"
		if i%2 == 1 {
			msg = "NOT_FREE"
		}
		if _, err := in.Deliver(msg); err != nil {
			return err
		}
	}
	set("runtime.deliver_ns", float64(time.Since(start))/deliveries)

	// fleetsim: one pass over the checked-in scenarios.
	if _, ok := b.layers["fleetsim.events_per_s"]; !ok {
		scenarios, err := loadFleet()
		if err != nil {
			return err
		}
		events, busy := 0, time.Duration(0)
		for _, fs := range scenarios {
			start := time.Now()
			rep, err := fleetRun(ctx, fs)
			busy += time.Since(start)
			b.check(err)
			if rep != nil {
				events += int(rep.Events)
			}
		}
		set("fleetsim.events_per_s", float64(events)/busy.Seconds())
	}
	for name := range layerUnits {
		set(name, 0)
	}
	buildLadder(b, median(passNs), median(coreNs), median(renderNs), len(fams), len(reqs))
	return nil
}

// buildLadder lays out the workload's rungs, outermost first, from its
// own spans and the probes.
func buildLadder(b *bench, pass, coreNs, renderNs float64, machines, artefacts int) {
	in, l := b.ladderIn, b.layers
	switch b.workload {
	case "codegen":
		b.ladder = []rung{
			{"SDK pass (Client.Stream, 1 job)", in["pass"]},
			{"pipeline pass (RenderAll, 1 job)", pass},
			{"core generate + render", coreNs + renderNs},
			{"render", renderNs},
		}
	case "serve":
		// Below the hot memo: a store read, then generation and
		// rendering for a store miss.
		b.ladder = []rung{
			{"HTTP round trip (hot 200)", in["rtt_hot"]},
			{"handler (hot 200)", in["handler_hot"]},
			{"Pipeline.Render (hot memo)", l["artifact.render_hot_ns"]},
			{"store.Get (read + sha256)", l["store.get_us"] * 1e3},
			{"core generate (mean per machine)", coreNs / float64(machines)},
			{"render (mean per artefact)", renderNs / float64(artefacts)},
		}
	case "ring":
		// Hot 200s the entry node proxied: each rung's span encloses the
		// next one's for every request. Ingest runs on another node after
		// the response and Route is probed directly, so both sit off the
		// ladder.
		b.ladder = []rung{
			{"HTTP round trip (hot 200, proxied)", in["rtt_proxied"]},
			{"entry handler", in["entry_proxied"]},
			{"proxy hop (to owner's headers)", in["hop_proxied"]},
			{"owner handler", in["owner_proxied"]},
		}
		b.offLadder = []rung{
			{"replica ingest (store.Ingest)", l["cluster.ingest_ms"] * 1e6},
			{"Node.Route under ingest", l["cluster.route_ns"]},
		}
	case "monitor":
		b.ladder = []rung{
			{"POST /check per line (client)", in["check_line"]},
			{"check handler per line", in["handler_line"]},
			{"Monitor.Run jsonl per line", 1e9 / l["trace.jsonl_lines_per_s"]},
			{"runtime Deliver", l["runtime.deliver_ns"]},
		}
	}
}

// probeRounds is how many times probeLayers runs core, render and the
// pipeline over the sweep.
const probeRounds = 3

type family struct {
	model string
	param int
}

// genRound is one probe round: core generation of every sweep machine
// (and EFSM) from scratch, rendering of every sweep artefact from those
// machines, then the same batch through a fresh pipeline with one job.
type genRound struct {
	coreNs, renderNs, passNs float64
	coreMB, renderMB         float64
	perFormat                map[string]float64 // render ns by format
	machines                 map[family]*core.StateMachine
	p                        *artifact.Pipeline
	results                  []artifact.Result
}

func probeGen(ctx context.Context, reg *models.Registry, fams []family, reqs []artifact.Request) (*genRound, error) {
	g := &genRound{perFormat: map[string]float64{}, machines: map[family]*core.StateMachine{}}
	efsms := map[family]*core.EFSM{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for _, f := range fams {
		entry, err := reg.Get(f.model)
		if err != nil {
			return nil, err
		}
		m, err := reg.Build(f.model, f.param)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		machine, err := core.Generate(ctx, m)
		if err != nil {
			return nil, err
		}
		var efsm *core.EFSM
		if entry.EFSM != nil {
			if efsm, err = entry.EFSM(ctx, f.param); err != nil {
				return nil, err
			}
		}
		g.coreNs += float64(time.Since(start))
		g.machines[f], efsms[f] = machine, efsm
	}
	runtime.ReadMemStats(&ms)
	g.coreMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)

	alloc0 = ms.TotalAlloc
	for _, req := range reqs {
		f := family{req.Model, req.Param}
		start := time.Now()
		if render.IsEFSMFormat(req.Format) {
			r, err := render.NewEFSM(req.Format)
			if err != nil {
				return nil, err
			}
			if _, err := r.RenderEFSM(efsms[f]); err != nil {
				return nil, err
			}
		} else {
			r, err := render.New(req.Format)
			if err != nil {
				return nil, err
			}
			if _, err := r.Render(g.machines[f]); err != nil {
				return nil, err
			}
		}
		d := float64(time.Since(start))
		g.renderNs += d
		g.perFormat[req.Format] += d
	}
	runtime.ReadMemStats(&ms)
	g.renderMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)

	g.p = artifact.New(artifact.WithJobs(1), artifact.WithRegistry(reg))
	start := time.Now()
	g.results = g.p.RenderAll(ctx, reqs)
	g.passNs = float64(time.Since(start))
	for _, res := range g.results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	return g, nil
}
