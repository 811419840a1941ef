package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"

	"asagen"
)

// item names one artefact: model × parameter × format.
type item struct {
	Model  string `json:"model"`
	Param  int    `json:"param"`
	Format string `json:"format"`
}

func (it item) path() string {
	return "/v1/models/" + it.Model + "/artifacts/" + it.Format + "?r=" + strconv.Itoa(it.Param)
}

// entry is one manifest row: the artefact's content hash and size as
// rendered at the commit that wrote the manifest. Sweep rows are the
// models' SweepParams (the codegen batch and the servers' pre-filled
// store); the rest are extra parameter values, the cold pool.
type entry struct {
	item
	Sum   string `json:"sha256"`
	Bytes int    `json:"bytes"`
	Sweep bool   `json:"sweep"`
}

const manifestPath = "perfbench/manifest.json"

// specModel is the inline spec registered next to the built-in models:
// the leader-lease scenario from the fleetsim examples.
const specModel = "leader-lease"

type universe struct {
	entries []entry
	index   map[item]int
	spec    []byte // leader-lease spec document
}

func loadUniverse() (*universe, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	u := &universe{index: map[item]int{}}
	if err := json.Unmarshal(data, &u.entries); err != nil {
		return nil, fmt.Errorf("parse %s: %w", manifestPath, err)
	}
	for i, e := range u.entries {
		u.index[e.item] = i
	}
	if u.spec, err = loadSpec(); err != nil {
		return nil, err
	}
	return u, nil
}

// loadSpec extracts the leader-lease spec document from its checked-in
// fleetsim scenario, so the benchmark registers exactly that spec.
func loadSpec() ([]byte, error) {
	data, err := os.ReadFile("examples/fleetsim/leader-lease.json")
	if err != nil {
		return nil, err
	}
	var sc struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &sc); err != nil || len(sc.Spec) == 0 {
		return nil, fmt.Errorf("leader-lease scenario has no inline spec: %v", err)
	}
	return sc.Spec, nil
}

// check compares artefact bytes with the manifest row for it.
func (u *universe) check(it item, data []byte) error {
	i, ok := u.index[it]
	if !ok {
		return fmt.Errorf("%v: not in the manifest", it)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != u.entries[i].Sum {
		return fmt.Errorf("%v: sha256 %s, manifest has %s", it, got[:12], u.entries[i].Sum[:12])
	}
	return nil
}

func (u *universe) sweep() []entry {
	var out []entry
	for _, e := range u.entries {
		if e.Sweep {
			out = append(out, e)
		}
	}
	return out
}

func (u *universe) cold() []entry {
	var out []entry
	for _, e := range u.entries {
		if !e.Sweep {
			out = append(out, e)
		}
	}
	return out
}

// newSpecClient returns an isolated SDK client with the leader-lease
// spec registered, as the codegen workload builds it.
func newSpecClient(spec []byte, opts ...asagen.ClientOption) (*asagen.Client, error) {
	c := asagen.NewClient(append(opts, asagen.WithIsolatedRegistry())...)
	s, err := asagen.ParseModelSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := c.RegisterModel(s); err != nil {
		return nil, err
	}
	return c, nil
}

// sweepRequests is the codegen batch: every model × SweepParams × format.
func sweepRequests(c *asagen.Client) []asagen.Request {
	var reqs []asagen.Request
	for _, m := range c.Models() {
		for _, p := range m.SweepParams {
			for _, f := range c.Formats() {
				if c.IsEFSMFormat(f) && !m.HasEFSM {
					continue
				}
				reqs = append(reqs, asagen.Request{Model: m.Name, Param: p, Format: f})
			}
		}
	}
	return reqs
}

// writeManifest renders the universe at the current commit and writes
// the manifest: the sweep, plus every other parameter value up to each
// model's middle sweep value (invalid values are skipped). The bound
// keeps cold-pool items cheap (milliseconds, not the hundreds that
// commit r=46 takes), so which cold items a seed touches barely moves
// the serve-path tail.
func writeManifest() error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	c, err := newSpecClient(spec)
	if err != nil {
		return err
	}
	var rows []entry
	add := func(req asagen.Request, sweep bool) error {
		res, err := c.Render(context.Background(), req)
		if err != nil {
			return err
		}
		rows = append(rows, entry{item{req.Model, req.Param, req.Format}, res.ContentHash, len(res.Data), sweep})
		return nil
	}
	for _, req := range sweepRequests(c) {
		if err := add(req, true); err != nil {
			return err
		}
	}
	for _, m := range c.Models() {
		hi := m.SweepParams[len(m.SweepParams)/2]
		for p := 1; p <= hi; p++ {
			if slices.Contains(m.SweepParams, p) {
				continue
			}
			for _, f := range c.Formats() {
				if c.IsEFSMFormat(f) && !m.HasEFSM {
					continue
				}
				_ = add(asagen.Request{Model: m.Name, Param: p, Format: f}, false) // invalid parameter values are not part of the universe
			}
		}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath, append(data, '\n'), 0o644)
}

// op is one generated request of an artefact stream.
type op struct {
	it      item
	inm     bool // send If-None-Match with the manifest ETag; expect 304
	reReg   bool // DELETE + POST the spec model instead of a GET
	isFirst bool // first request for the item since start or re-registration
	cold    bool // the item is not in the pre-filled store: it generates
}

// The request mix is an assumption: the repository has no traffic log to
// derive one from. README.md gives the reasons and the alternatives.
const (
	// zipfS is the popularity exponent over the hot set. Web proxy
	// traces measured 0.64–0.83 (Breslau et al., INFOCOM 1999), but
	// rand.NewZipf needs s > 1; 1.5 is a choice, not a measurement.
	zipfS = 1.5
	// inmP is the share of repeat requests that revalidate with
	// If-None-Match (answered 304): a choice, no source.
	inmP = 0.3
)

// streamConfig is what differs between the serve and ring streams.
type streamConfig struct {
	coldEvery int // every coldEvery-th op touches a new cold-pool item (0 = never)
	reRegEv   int // every reRegEv-th op re-registers the spec model (0 = never)
}

// stream is a seeded artefact request stream. The hot set is the sweep
// ranked by size, smallest most popular (an artefact grows with its
// model parameter, and small deployments are assumed the common ones),
// so every seed sees the same popularity profile; the seed only changes
// the order of arrivals and which cold items are touched.
type stream struct {
	cfg  streamConfig
	rng  *rand.Rand
	zipf *rand.Zipf
	hot  []entry
	cold []entry
	seen map[item]bool
	i    int
}

func (u *universe) stream(seed int64, cfg streamConfig) *stream {
	rng := rand.New(rand.NewSource(seed))
	hot := u.sweep()
	slices.SortStableFunc(hot, func(a, b entry) int { return a.Bytes - b.Bytes })
	cold := u.cold()
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	return &stream{cfg: cfg, rng: rng, hot: hot, cold: cold, seen: map[item]bool{},
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))}
}

// take generates the next n ops.
func (s *stream) take(n int) []op {
	ops := make([]op, 0, n)
	for ; len(ops) < n; s.i++ {
		if s.cfg.reRegEv > 0 && s.i%s.cfg.reRegEv == s.cfg.reRegEv-1 {
			ops = append(ops, op{reReg: true})
			for it := range s.seen {
				if it.Model == specModel {
					delete(s.seen, it)
				}
			}
			continue
		}
		var o op
		// Cold requests are evenly spaced rather than drawn, so every
		// seed sends the same number of them.
		if len(s.cold) > 0 && s.cfg.coldEvery > 0 && s.i%s.cfg.coldEvery == 0 {
			o.it, o.cold = s.cold[0].item, true
			s.cold = s.cold[1:]
		} else {
			o.it = s.hot[s.zipf.Uint64()].item
		}
		o.isFirst = !s.seen[o.it]
		// The spec model is registered over HTTP after the restart, so
		// its artefacts are never in the pre-filled store.
		o.cold = o.cold || (o.isFirst && o.it.Model == specModel)
		o.inm = !o.isFirst && s.rng.Float64() < inmP
		s.seen[o.it] = true
		ops = append(ops, o)
	}
	return ops
}

func (u *universe) etag(it item) string {
	return `"` + u.entries[u.index[it]].Sum + `"`
}
