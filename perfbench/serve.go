package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/models"
	"asagen/internal/store"
)

// Serve-path load shape. The fixed rates sit at about a third of the
// measured capacity: p50/p99 describe a server that keeps up, yet busy
// enough that its vCPUs do not halt between requests (a halted vCPU on
// the reference VM wakes late, which shows in every latency).
const (
	serveRate     = 8000.0
	ringRate      = 6000.0
	loadWorkers   = 2 // nproc of the reference host
	fixedShare    = 0.5
	ringNodeCount = 3
)

// Cold items and re-registrations are evenly spaced, so every seed sends
// the same number of them, and the cold pool lasts through the
// fixed-rate phase, so every window sees the same mix. The spacings are
// choices, not measurements. On the ring every owner's first render of
// a key, cold or from the store, also propagates it to the replica.
var (
	serveStream = streamConfig{coldEvery: 2500, reRegEv: 20000}
	ringStream  = streamConfig{coldEvery: 4000}
)

// loadRun is the client side of one serve or ring run.
type loadRun struct {
	b       *bench
	targets []string
	clients [loadWorkers]*http.Client
	bufs    [loadWorkers]*bytes.Buffer
	specMu  sync.RWMutex // re-registration excludes the spec model's GETs

	mu      sync.Mutex
	classes map[uint64]reqClass // client span ID → what it requested (traced)
	routes  map[string]int64    // X-Asagen-Route values
}

func newLoadRun(b *bench, targets []string) *loadRun {
	l := &loadRun{b: b, targets: targets, classes: map[uint64]reqClass{}, routes: map[string]int64{}}
	for w := range loadWorkers {
		l.clients[w] = newClient()
		l.bufs[w] = new(bytes.Buffer)
	}
	return l
}

// reqClass is what a traced request exercised: its class and the
// X-Asagen-Route header it was answered with (empty when standalone).
type reqClass struct {
	class, route string
}

// class names the serve-path rung a request exercises, as the benchmark
// knows it from the inputs it generated.
func class(o op) string {
	switch {
	case o.inm:
		return "304"
	case o.cold:
		return "cold"
	case o.isFirst:
		return "store"
	default:
		return "hot"
	}
}

// do performs one op against target i mod len(targets) and checks it.
// It returns the op's completion time, taken once the response body is
// read and before the checks, so the checks stay out of the latency.
func (l *loadRun) do(w, i int, o op) (time.Time, error) {
	if o.reReg {
		err := l.reRegister(w)
		return time.Now(), err
	}
	if o.it.Model == specModel {
		l.specMu.RLock()
		defer l.specMu.RUnlock()
	}
	target := l.targets[i%len(l.targets)]
	req, err := http.NewRequest(http.MethodGet, target+o.it.path(), nil)
	if err != nil {
		return time.Now(), err
	}
	id := l.b.tr.newID()
	reqID := strconv.FormatUint(id, 10)
	req.Header.Set(reqHeader, reqID)
	etag := l.b.u.etag(o.it)
	if o.inm {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := l.clients[w].Do(req)
	if err != nil {
		return time.Now(), err
	}
	buf := l.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return end, err
	}
	l.b.tr.add(id, 0, "http", reqID, start, end)
	route := resp.Header.Get(api.HeaderRoute)
	l.mu.Lock()
	l.routes[route]++
	if l.b.tr != nil {
		l.classes[id] = reqClass{class(o), route}
	}
	l.mu.Unlock()
	want := http.StatusOK
	if o.inm {
		want = http.StatusNotModified
	}
	switch {
	case resp.StatusCode != want:
		err = fmt.Errorf("GET %s: status %d, want %d: %.200s", o.it.path(), resp.StatusCode, want, buf.Bytes())
	case resp.Header.Get("ETag") != etag:
		err = fmt.Errorf("GET %s: ETag %s, manifest %s", o.it.path(), resp.Header.Get("ETag"), etag)
	case !o.inm:
		err = l.b.u.check(o.it, buf.Bytes())
	}
	return end, err
}

// reRegister deletes and re-posts the spec model on every target; its
// artefacts go cold (the store rows are evicted with it).
func (l *loadRun) reRegister(w int) error {
	l.specMu.Lock()
	defer l.specMu.Unlock()
	for _, t := range l.targets {
		req, err := http.NewRequest(http.MethodDelete, t+"/v1/models/"+specModel, nil)
		if err != nil {
			return err
		}
		if err := expect(l.clients[w], req, http.StatusNoContent); err != nil {
			return err
		}
		if err := postSpec(l.clients[w], t, l.b.u.spec); err != nil {
			return err
		}
	}
	return nil
}

func postSpec(c *http.Client, target string, spec []byte) error {
	req, err := http.NewRequest(http.MethodPost, target+"/v1/models", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return expect(c, req, http.StatusCreated)
}

func expect(c *http.Client, req *http.Request, status int) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, status, body)
	}
	return nil
}

// phase runs one open-loop phase of the stream at rate for dur.
func (l *loadRun) phase(s *stream, rate float64, dur time.Duration) *openResult {
	ops := s.take(max(1, int(rate*dur.Seconds())))
	res := openLoop(rate, dur, loadWorkers, func(w, i int) (time.Time, error) {
		done, err := l.do(w, i, ops[i])
		l.b.check(err)
		return done, err
	})
	if !res.healthy() {
		// The generator missed its schedule: this phase measured the load
		// generator, so its operations count as failed, not as latencies.
		l.b.reject(res.sent-res.failed, fmt.Errorf("load generator lag p99 %v over the %v bound at %.0f req/s",
			res.lagP99(), lagLimit, rate))
	}
	return res
}

// measureLoad runs the fixed-rate open-loop phase (p50, the generator's
// lag) and then the closed-loop capacity phase (throughput).
func (l *loadRun) measureLoad(rate float64, cfg streamConfig) {
	b := l.b
	s := b.u.stream(b.seed, cfg)
	heap := startHeapSampler()
	fixed := l.phase(s, rate, time.Duration(fixedShare*float64(b.seconds)))
	b.e2e[mThroughput] = l.capacity(s, time.Duration((1-fixedShare)*float64(b.seconds)))
	b.e2e[mHeap] = heap.finish()
	if err := setLatency(b, &fixed.lat); err != nil {
		b.fail(err)
	}
	b.layers["driver.lag_p99_ms"] = float64(fixed.lagP99()) / 1e6
	fmt.Printf("%s load generator: lag p50 %s p99 %s at %.0f req/s (bound %s)\n",
		b.workload, fmtNs(quantile(fixed.lag.sorted(), 0.5)), fixed.lagP99(), rate, lagLimit)
}

// capacity runs the stream closed loop, each worker sending its next
// request as soon as the previous one completes, and returns completed
// requests per second: the rate the servers sustain over the same
// connections when they never wait for an arrival.
func (l *loadRun) capacity(s *stream, dur time.Duration) float64 {
	var (
		mu    sync.Mutex
		ops   []op
		count int
	)
	next := func() (int, op) {
		mu.Lock()
		defer mu.Unlock()
		if len(ops) == 0 {
			ops = s.take(4096)
		}
		o := ops[0]
		ops, count = ops[1:], count+1
		return count - 1, o
	}
	const interval = 250 * time.Millisecond
	counts := closedLoop(dur, interval, loadWorkers, func(w int) error {
		i, o := next()
		_, err := l.do(w, i, o)
		l.b.check(err)
		return err
	})
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / interval.Seconds()
	}
	fmt.Printf("  capacity over %d connections, per %s: %v req/s\n", loadWorkers, interval, rates)
	return median(rates)
}

// prefill renders the built-in sweep into a fresh store at dir, as a
// previous server life would have, and closes it.
func prefill(b *bench, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	p := artifact.New(artifact.WithRegistry(models.Default().Clone()), artifact.WithStore(st))
	var reqs []artifact.Request
	for _, e := range b.u.sweep() {
		if e.Model != specModel {
			reqs = append(reqs, artifact.Request{Model: e.Model, Param: e.Param, Format: e.Format})
		}
	}
	for _, res := range p.RenderAll(context.Background(), reqs) {
		if res.Err != nil {
			st.Close()
			return res.Err
		}
	}
	return st.Close()
}

// runServe is §4.2 "generate on first use, then cache" as deployed: one
// node restarted over a store that set-up pre-filled, under an open-loop
// Zipf stream of hot 200s, 304 revalidations, first touches served from
// the store, a small cold tail, and periodic re-registration of the
// spec model.
func runServe(b *bench) error {
	sm := b.seams()
	var (
		n      *node
		setups []float64
	)
	for i := range setupRounds {
		if n != nil {
			if err := n.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		dir := b.dir(fmt.Sprintf("store%d", i))
		if err := prefill(b, dir); err != nil {
			return err
		}
		ln, url, err := listen()
		if err != nil {
			return err
		}
		if n, err = startNode(dir, ln, url, nil, sm); err != nil {
			return err
		}
		if err := postSpec(newClient(), url, b.u.spec); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e[mSetup] = median(setups)
	l := newLoadRun(b, []string{n.url})
	l.measureLoad(serveRate, serveStream)
	st := n.p.Stats()
	serveLayers(b, l, []*node{n})
	fmt.Printf("serve stats: hot hits %d, render hits %d misses %d, generations %d, store hits %d misses %d puts %d\n",
		st.HotHits, st.RenderHits, st.RenderMisses, st.Machine.Generations, st.Store.Hits, st.Store.Misses, st.Store.Puts)
	return n.stop()
}

// serveLayers derives the serve-path layer metrics and ladder inputs
// from the run's spans and the nodes' Stats snapshots.
func serveLayers(b *bench, l *loadRun, nodes []*node) {
	var hot, renders, gens, shits, slook, chits, clook int64
	for _, n := range nodes {
		st := n.p.Stats()
		hot += st.HotHits
		renders += st.RenderHits + st.RenderMisses
		gens += st.Machine.Generations
		chits += st.Machine.Hits
		clook += st.Machine.Hits + st.Machine.Misses
		if st.Store != nil {
			shits += st.Store.Hits
			slook += st.Store.Hits + st.Store.Misses
		}
	}
	b.layers["artifact.hot_ratio"] = float64(hot) / float64(max(renders, 1))
	b.layers["store.hit_ratio"] = float64(shits) / float64(max(slook, 1))
	b.layers["core.generations"] = float64(gens)
	b.layers["core.cache_hit_ratio"] = float64(chits) / float64(max(clook, 1))
	if b.tr == nil {
		return
	}
	// Spans by the request they served, found by walking parents up to
	// the client ("http") span: depth 0 is that span, 1 the entry
	// node's handler, 2 its proxy hop, 3 the owner's handler.
	spans := b.tr.snapshot()
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	handler, rtt := map[string][]float64{}, map[string][]float64{}
	var proxied [4][]float64 // hot 200s answered through a proxy hop, by depth
	l.mu.Lock()
	for _, s := range spans {
		depth, c, ok := 0, reqClass{}, false
		for id := s.ID; id != 0 && !ok; id = byID[id].Parent {
			if c, ok = l.classes[id]; !ok {
				depth++
			}
		}
		if !ok {
			continue
		}
		d := float64(s.End - s.Start)
		switch {
		case s.Name == "http":
			rtt[c.class] = append(rtt[c.class], d)
		case s.Name == "handler" && depth == 1:
			handler[c.class] = append(handler[c.class], d)
		}
		if c.class == "hot" && c.route == "proxied" && depth < len(proxied) {
			proxied[depth] = append(proxied[depth], d)
		}
	}
	l.mu.Unlock()
	for i, name := range []string{"rtt_proxied", "entry_proxied", "hop_proxied", "owner_proxied"} {
		b.ladderIn[name] = median(proxied[i])
	}
	b.layers["api.handler_hot_us"] = median(handler["hot"]) / 1e3
	b.layers["api.handler_304_us"] = median(handler["304"]) / 1e3
	b.layers["api.handler_cold_ms"] = median(handler["cold"]) / 1e6
	b.ladderIn["handler_hot"] = median(handler["hot"])
	b.ladderIn["rtt_hot"] = median(rtt["hot"])
	b.layers["http.wire_us"] = median(selfTimes(spans)["http"]) / 1e3
}

// runRing drives three in-process -cluster nodes (replicas 1, fixed node
// IDs, so key ownership is fixed) with arrivals round-robin across them:
// routing, one proxy hop for remote keys, replica propagation and
// store.Ingest all run under the measured load.
func runRing(b *bench) error {
	sm := b.seams()
	var (
		nodes  []*node
		setups []float64
	)
	stopAll := func() error {
		var err error
		for _, n := range nodes {
			if e := n.stop(); e != nil && err == nil {
				err = e
			}
		}
		nodes = nil
		return err
	}
	defer stopAll()
	for i := range setupRounds {
		if err := stopAll(); err != nil {
			return err
		}
		start := time.Now()
		var err error
		if nodes, err = startRing(b, sm, i); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e[mSetup] = median(setups)
	var urls []string
	for _, n := range nodes {
		urls = append(urls, n.url)
	}
	l := newLoadRun(b, urls)
	// Set-up restarts the ring, and stopping nodes fail sends to each
	// other; only sends during the measurement count.
	sm.sends.Store(0)
	sm.sendFailures.Store(0)
	var routeProbe *samples
	stopProbe := func() {}
	if b.tr != nil {
		routeProbe, stopProbe = probeRoute(b, nodes[0])
	}
	l.measureLoad(ringRate, ringStream)
	stopProbe()
	serveLayers(b, l, nodes)

	var total, sends int64
	for _, v := range l.routes {
		total += v
	}
	b.layers["cluster.proxied_ratio"] = float64(l.routes["proxied"]) / float64(max(total, 1))
	b.layers["cluster.replica_ratio"] = float64(l.routes["replica"]) / float64(max(total, 1))
	for _, u := range urls {
		rep, err := clusterStatus(u)
		b.check(err)
		sends += rep.Stats.PropagationsSent
	}
	b.layers["cluster.propagate_sends"] = float64(sends)
	b.layers["cluster.send_failures"] = float64(sm.sendFailures.Load())
	fmt.Printf("ring routes: %v; propagations sent %d; transport sends %d failed %d\n",
		l.routes, sends, sm.sends.Load(), sm.sendFailures.Load())
	if b.tr != nil {
		spans := b.tr.snapshot()
		b.layers["cluster.proxy_hop_ms"] = median(durations(spans, "proxy")) / 1e6
		b.layers["cluster.ingest_ms"] = median(durations(spans, "ingest")) / 1e6
		b.layers["cluster.route_ns"] = quantile(routeProbe.sorted(), 0.5)
	}
	return nil
}

// clusterStatus reads a node's /v1/cluster report and requires every
// member in its view and a zero routing-oracle violation count.
func clusterStatus(url string) (cluster.Report, error) {
	var rep cluster.Report
	resp, err := newClient().Get(url + "/v1/cluster")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("%s/v1/cluster: %w", url, err)
	}
	if rep.Oracle.ViolationCount != 0 || len(rep.Members) != ringNodeCount {
		return rep, fmt.Errorf("%s/v1/cluster: %d violations %v, %d members",
			url, rep.Oracle.ViolationCount, rep.Oracle.Violations, len(rep.Members))
	}
	return rep, nil
}

// startRing pre-fills one store, copies it to the other nodes' stores,
// starts the three nodes and waits until every ring has all of them.
func startRing(b *bench, sm *seams, round int) ([]*node, error) {
	dirs := make([]string, ringNodeCount)
	for i := range dirs {
		dirs[i] = b.dir(fmt.Sprintf("ring%d-node%d", round, i))
	}
	if err := prefill(b, dirs[0]); err != nil {
		return nil, err
	}
	for _, d := range dirs[1:] {
		if err := os.CopyFS(d, os.DirFS(dirs[0])); err != nil {
			return nil, err
		}
	}
	lns := make([]net.Listener, ringNodeCount)
	urls := make([]string, ringNodeCount)
	for i := range lns {
		var err error
		if lns[i], urls[i], err = listen(); err != nil {
			closeAll(lns[:i])
			return nil, err
		}
	}
	var nodes []*node
	for i, d := range dirs {
		peers := slices.Delete(slices.Clone(urls), i, i+1)
		cs := &clusterSpec{id: "node-" + string(rune('a'+i)), peers: peers, seed: b.seed}
		n, err := startNode(d, lns[i], urls[i], cs, sm)
		if err != nil {
			closeAll(lns[i+1:]) // not yet handed to a node
			return nodes, err
		}
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for len(n.cl.Status().Ring) != ringNodeCount {
			if time.Now().After(deadline) {
				return nodes, fmt.Errorf("ring did not converge: %s sees %d nodes", n.cl.ID(), len(n.cl.Status().Ring))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	c := newClient()
	for _, n := range nodes {
		if err := postSpec(c, n.url, b.u.spec); err != nil {
			return nodes, err
		}
	}
	return nodes, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// probeRoute times Node.Route directly, every millisecond, while the
// load (and with it replica ingest) runs: the routing decision's cost
// under contention for the node's lock.
func probeRoute(b *bench, n *node) (*samples, func()) {
	var keys []string
	for _, e := range b.u.sweep() {
		if key, _, err := n.p.RouteKey(artifact.Request{Model: e.Model, Param: e.Param, Format: e.Format}); err == nil {
			keys = append(keys, key)
		}
	}
	s := &samples{}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			start := time.Now()
			n.cl.Route(keys[i%len(keys)])
			s.add(time.Since(start))
			time.Sleep(time.Millisecond)
		}
	}()
	return s, func() { stop.Store(true); <-done }
}
