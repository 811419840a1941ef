package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/cluster"
	"asagen/internal/models"
	"asagen/internal/store"
)

// reqHeader carries the benchmark's request id to the handler seam.
const reqHeader = "X-Bench-Request"

// seams wraps the points the program exposes for substitution: the
// http.Handler, api.WithProxyClient's client, cluster.NewHTTPTransport's
// client and cluster.Config.Ingest. Each records spans when traced and
// can inject a fixed delay (the attribution test uses that).
type seams struct {
	tr *tracer
	delays

	sends, sendFailures atomic.Int64
}

// handler wraps the API handler: one "handler" span per request, with
// the span ID in the request context for the proxy client seam.
func (s *seams) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.tr.newID()
		start := time.Now()
		if s.handlerDelay > 0 {
			time.Sleep(s.handlerDelay)
		}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		// The request id is the ID of the client or proxy hop span that
		// sent the request: the handler span's parent.
		reqID := r.Header.Get(reqHeader)
		parent, _ := strconv.ParseUint(reqID, 10, 64)
		s.tr.add(id, parent, "handler", reqID, start, time.Now())
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// proxyClient is the client a clustered handler proxies with, as
// api.NewHandler builds it (10 s timeout) but over the node's own
// transport: one "proxy" span per hop, parented on the handler span. The
// hop carries the span's ID as the request id, so the owner's handler
// span is the hop's child. The span ends when the owner's headers
// arrive; the body copy stays in the entry handler.
func (s *seams) proxyClient(base http.RoundTripper) *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		id := s.tr.newID()
		if s.tr != nil {
			r = r.Clone(r.Context())
			r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		}
		start := time.Now()
		if s.proxyDelay > 0 {
			time.Sleep(s.proxyDelay)
		}
		resp, err := base.RoundTrip(r)
		s.tr.add(id, spanFrom(r.Context()), "proxy", "", start, time.Now())
		return resp, err
	})}
}

// transportClient is the cluster transport's client, as
// cluster.NewHTTPTransport builds it (5 s timeout) but over the node's
// own transport: it counts sends and failures, which the HTTP transport
// otherwise drops silently.
func (s *seams) transportClient(base http.RoundTripper) *http.Client {
	return &http.Client{Timeout: 5 * time.Second, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		s.sends.Add(1)
		resp, err := base.RoundTrip(r)
		if err != nil || resp.StatusCode >= 300 {
			s.sendFailures.Add(1)
		}
		return resp, err
	})}
}

// ingest wraps a store's Ingest as the cluster's replica ingest func.
func (s *seams) ingest(st *store.Store) func(cluster.Blob) error {
	return func(b cluster.Blob) error {
		start := time.Now()
		err := st.Ingest(b.Key, b.Data, b.Sum, b.Media, b.Ext)
		s.tr.add(0, 0, "ingest", b.Key.Format, start, time.Now())
		return err
	}
}

// node is one in-process `fsmgen serve` instance built from the same
// constructors and settings: a registry clone, artifact.New over
// store.Open, cache limit 128, api.NewHandler, and an http.Server with
// serve's timeouts on a loopback listener.
type node struct {
	st   *store.Store
	p    *artifact.Pipeline
	cl   *cluster.Node
	base *http.Transport // the cluster clients' connection pool
	srv  *http.Server
	url  string
	done chan error
}

const cacheLimit = 128

// clusterSpec configures a node as a ring member.
type clusterSpec struct {
	id    string
	peers []string
	seed  int64
}

// listen reserves the node's loopback address before the cluster node
// needs its URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves a new node on ln, which it owns from then on.
func startNode(dir string, ln net.Listener, url string, cs *clusterSpec, sm *seams) (*node, error) {
	st, err := store.Open(dir)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("open artifact store: %w", err)
	}
	p := artifact.New(artifact.WithJobs(0), artifact.WithRegistry(models.Default().Clone()), artifact.WithStore(st))
	p.Cache().SetLimit(cacheLimit)
	n := &node{st: st, p: p, url: url, done: make(chan error, 1)}
	var opts []api.HandlerOption
	if cs != nil {
		// `fsmgen serve` leaves both clients on http.DefaultTransport:
		// one connection pool per process, shared by the proxy hop, gossip
		// and propagation. Each node here is its own process's worth of
		// that pool.
		n.base = http.DefaultTransport.(*http.Transport).Clone()
		transport := cluster.NewHTTPTransport(sm.transportClient(n.base))
		n.cl, err = cluster.New(cluster.Config{
			ID:        cs.id,
			URL:       url,
			Replicas:  1,
			Seed:      cs.seed,
			Clock:     cluster.NewRealClock(),
			Log:       cluster.NewBoundedLog(256),
			Peers:     cs.peers,
			Transport: transport,
			Ingest:    sm.ingest(st),
		})
		if err != nil {
			ln.Close()
			st.Close()
			return nil, err
		}
		transport.Bind(n.cl)
		n.cl.Start()
		opts = append(opts, api.WithCluster(n.cl), api.WithProxyClient(sm.proxyClient(n.base)))
	}
	n.srv = &http.Server{
		Handler:           sm.handler(api.NewHandler(p, opts...)),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// stop shuts the node down and waits for its server goroutine.
func (n *node) stop() error {
	if n.cl != nil {
		n.cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if n.base != nil {
		n.base.CloseIdleConnections()
	}
	return errors.Join(err, n.st.Close())
}

// newClient returns the load generator's client for one worker: a
// single keep-alive connection per target.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
