package api

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/trace"
)

// conformingTrace finishes one commit member at r=4 (vote threshold 3 is
// met by two received votes plus the member's own, commit threshold 2).
const conformingTrace = `{"msg":"FREE"}
"UPDATE"
"VOTE"
"VOTE"
"COMMIT"
"COMMIT"
`

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// parseSSE splits a complete event-stream body into events.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: ") || !strings.HasPrefix(lines[1], "data: ") {
			t.Fatalf("malformed SSE block %q", block)
		}
		events = append(events, sseEvent{
			name: strings.TrimPrefix(lines[0], "event: "),
			data: strings.TrimPrefix(lines[1], "data: "),
		})
	}
	return events
}

func postCheck(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func TestCheckRouteConformingStream(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4", conformingTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}
	events := parseSSE(t, body)
	var names []string
	for _, ev := range events {
		names = append(names, ev.name)
	}
	want := []string{"accepted", "accepted", "accepted", "accepted", "accepted",
		"accepted", "finished", "summary"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("event names = %v, want %v", names, want)
	}
	last := events[len(events)-1]
	var summary struct {
		Kind  string `json:"kind"`
		Stats struct {
			Lines      int    `json:"lines"`
			Accepted   int    `json:"accepted"`
			Violations int    `json:"violations"`
			Finished   bool   `json:"finished"`
			FinalState string `json:"final_state"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(last.data), &summary); err != nil {
		t.Fatalf("summary data %q: %v", last.data, err)
	}
	st := summary.Stats
	if st.Lines != 6 || st.Accepted != 6 || st.Violations != 0 || !st.Finished || st.FinalState == "" {
		t.Errorf("summary stats = %+v", st)
	}
}

// TestCheckRouteVerdictBytesMatchMonitor pins the cross-surface contract:
// the SSE data payloads are byte-identical to the canonical verdict JSON
// the trace layer produces directly (and hence to `fsmgen check -json`
// and the SDK iterator, which share the same encoder).
func TestCheckRouteVerdictBytesMatchMonitor(t *testing.T) {
	p := artifact.New()
	ts := httptest.NewServer(NewHandler(p))
	defer ts.Close()

	traceBody := "\"FREE\"\n\"UPDATE\"\n\"NOPE\"\n\"NOPE\"\n" // one tolerated rejection, then a violation
	_, body := postCheck(t, ts, "/v1/models/commit/check?r=4&tolerance=1", traceBody)
	events := parseSSE(t, body)

	machine, _, _, err := p.Machine(context.Background(), "commit", 4)
	if err != nil {
		t.Fatal(err)
	}
	var wantData []string
	mon, err := trace.NewMonitor(
		trace.WithTarget("", machine),
		trace.WithTolerance(1),
		trace.WithObserver(trace.ObserverFunc(func(v trace.Verdict) bool {
			wantData = append(wantData, string(v.AppendJSON(nil)))
			return true
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mon.Run(context.Background(), trace.NewJSONLDecoder(strings.NewReader(traceBody)))
	if err != nil {
		t.Fatal(err)
	}
	wantData = append(wantData, string(trace.Terminal(rep, nil).AppendJSON(nil)))

	if len(events) != len(wantData) {
		t.Fatalf("got %d events, want %d", len(events), len(wantData))
	}
	for i, ev := range events {
		if ev.data != wantData[i] {
			t.Errorf("event %d data = %s\nwant       %s", i, ev.data, wantData[i])
		}
	}
}

func TestCheckRouteMalformedTrace(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4", "\"UPDATE\"\n{broken\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (the stream had already started)", resp.StatusCode)
	}
	events := parseSSE(t, body)
	last := events[len(events)-1]
	if last.name != "error" {
		t.Fatalf("terminal event = %q, want error; body %q", last.name, body)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(last.data), &envelope); err != nil {
		t.Fatalf("error data %q: %v", last.data, err)
	}
	if envelope.Error.Code != CodeBadTrace || !strings.Contains(envelope.Error.Message, "line 2") {
		t.Errorf("error envelope = %+v", envelope.Error)
	}
	// The conforming prefix was still judged before the failure.
	if events[0].name != "accepted" {
		t.Errorf("first event = %q, want accepted", events[0].name)
	}
}

func TestCheckRouteRegexFormat(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	trace := "12:01 recv FREE\nplain noise line\n12:02 recv UPDATE\n"
	resp, body := postCheck(t, ts, "/v1/models/commit/check?r=4&format=regex", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	events := parseSSE(t, body)
	var names []string
	for _, ev := range events {
		names = append(names, ev.name)
	}
	if strings.Join(names, ",") != "accepted,skipped,accepted,summary" {
		t.Fatalf("event names = %v", names)
	}

	// A custom match pattern implies the regex format.
	q := url.Values{"r": {"4"}, "match": {`recv ([A-Z_]+)`}}
	resp, body = postCheck(t, ts, "/v1/models/commit/check?"+q.Encode(), "ignored recv FREE\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if events := parseSSE(t, body); events[0].name != "accepted" {
		t.Errorf("events = %+v", events)
	}
}

func TestCheckRoutePreflightErrors(t *testing.T) {
	ts := httptest.NewServer(NewHandler(artifact.New()))
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/models/nonsense/check", http.StatusNotFound, CodeUnknownModel},
		{"/v1/models/commit/check?r=banana", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?tolerance=-1", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?keep_going=maybe", http.StatusBadRequest, CodeBadParameter},
		{"/v1/models/commit/check?format=xml", http.StatusBadRequest, CodeBadTrace},
		{"/v1/models/commit/check?match=%28broken", http.StatusBadRequest, CodeBadTrace},
	} {
		resp, body := postCheck(t, ts, tc.path, "\"UPDATE\"\n")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.path, resp.StatusCode, tc.status, body)
			continue
		}
		var envelope struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &envelope); err != nil {
			t.Errorf("%s: body %q not an error envelope: %v", tc.path, body, err)
			continue
		}
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.path, envelope.Error.Code, tc.code)
		}
	}

	// GET is not served on the check route.
	resp, err := http.Get(ts.URL + "/v1/models/commit/check")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestCheckRouteClientDisconnect pins request-scoped cancellation: when
// the client goes away mid-stream, the handler notices and returns
// instead of blocking on the half-open trace body.
func TestCheckRouteClientDisconnect(t *testing.T) {
	handlerDone := make(chan struct{})
	inner := NewHandler(artifact.New())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/models/commit/check?r=4", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Feed one event, read its verdict back, then vanish mid-stream.
	if _, err := io.WriteString(pw, "\"UPDATE\"\n"); err != nil {
		t.Fatal(err)
	}
	firstEvent := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, firstEvent); err != nil {
		t.Fatal(err)
	}
	cancel()

	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after client disconnect")
	}
	pw.Close()
}

// readEvent reads one SSE event block from a live stream.
func readEvent(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var block []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event after %q: %v", block, err)
		}
		if line == "\n" {
			break
		}
		block = append(block, line)
	}
	return parseSSE(t, strings.Join(block, "")+"\n")[0]
}

// TestCheckRouteLockstepKeepAlive pins liveness and connection reuse: a
// client that writes one line and waits for its verdict before writing
// the next is never stalled, and streams read to EOF leave the HTTP/1
// connection reusable.
func TestCheckRouteLockstepKeepAlive(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(NewHandler(artifact.New()))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	// A verdict held back until more input arrives would stall the
	// lockstep: the deadline turns that stall into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const lines = 50
	for stream := 0; stream < 3; stream++ {
		pr, pw := io.Pipe()
		context.AfterFunc(ctx, func() { pr.CloseWithError(ctx.Err()) })
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/models/commit/check?r=4", pr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		for i := 0; i < lines; i++ {
			msg := "\"FREE\"\n"
			if i%2 == 1 {
				msg = "\"NOT_FREE\"\n"
			}
			if _, err := io.WriteString(pw, msg); err != nil {
				t.Fatal(err)
			}
			if ev := readEvent(t, br); ev.name != "accepted" {
				t.Fatalf("stream %d line %d: event %q, want accepted", stream, i+1, ev.name)
			}
		}
		pw.Close()
		if ev := readEvent(t, br); ev.name != "summary" || !strings.Contains(ev.data, `"lines":50`) {
			t.Fatalf("stream %d: terminal event %+v", stream, ev)
		}
		if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
			t.Fatalf("stream %d: after summary: %q, %v", stream, rest, err)
		}
		resp.Body.Close()
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("3 streams used %d connections, want 1", n)
	}
}

// TestCheckRouteEarlyStopWithOpenBody pins the stop at the first
// violation: without keep_going the client gets the summary and the
// handler returns while the trace body is still open.
func TestCheckRouteEarlyStopWithOpenBody(t *testing.T) {
	handlerDone := make(chan struct{})
	inner := NewHandler(artifact.New())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/models/commit/check?r=4", "application/jsonl", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.WriteString(pw, "\"FREE\"\n\"BOGUS\"\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	var names []string
	for _, ev := range []sseEvent{readEvent(t, br), readEvent(t, br), readEvent(t, br)} {
		names = append(names, ev.name)
	}
	if strings.Join(names, ",") != "accepted,violation,summary" {
		t.Fatalf("events = %v", names)
	}
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after the violation")
	}
}

// flakyFlushWriter is a recorder whose connection dies after the first
// flush.
type flakyFlushWriter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (w *flakyFlushWriter) FlushError() error {
	if w.flushes++; w.flushes > 1 {
		return errors.New("connection reset by peer")
	}
	return nil
}

// TestCheckRouteFlushFailureStopsQuietly pins the client-gone stop: when
// the flush before a body read fails, the run ends without writing a
// trace_aborted event to the dead connection.
func TestCheckRouteFlushFailureStopsQuietly(t *testing.T) {
	h := NewHandler(artifact.New())
	// Each line arrives in its own read, so the second read's flush is
	// the one that fails, after one verdict.
	body := io.MultiReader(strings.NewReader("\"FREE\"\n"), strings.NewReader("\"NOT_FREE\"\n"))
	req := httptest.NewRequest(http.MethodPost, "/v1/models/commit/check?r=4", body)
	w := &flakyFlushWriter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, req)

	events := parseSSE(t, w.Body.String())
	if len(events) != 1 || events[0].name != "accepted" {
		t.Fatalf("events = %+v, want one accepted verdict and nothing after the failed flush", events)
	}
}

// TestCheckRouteIdleDeadline pins the server's ReadTimeout and
// WriteTimeout as idle limits on /check: a trace that keeps moving may
// outlast them, and one that stalls past ReadTimeout ends in a terminal
// trace_aborted error event instead of a silent cut.
func TestCheckRouteIdleDeadline(t *testing.T) {
	const timeout = 300 * time.Millisecond
	p := artifact.New()
	// Generate the machine up front: the first write must not wait on it.
	if _, _, _, err := p.Machine(context.Background(), "commit", 4); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(NewHandler(p))
	ts.Config.ReadTimeout = timeout
	ts.Config.WriteTimeout = timeout
	ts.Start()
	defer ts.Close()

	stream := func(t *testing.T, feed func(w io.Writer)) []sseEvent {
		pr, pw := io.Pipe()
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			feed(pw)
			pw.Close()
		}()
		defer func() {
			pr.Close() // fail the feeder's writes if the stream ended early
			<-fed
		}()
		resp, err := ts.Client().Post(ts.URL+"/v1/models/commit/check?r=4", "application/jsonl", pr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseSSE(t, string(raw))
	}

	t.Run("trickle", func(t *testing.T) {
		events := stream(t, func(w io.Writer) {
			for i := 0; i < 10; i++ { // 1 s in all, 100 ms apart
				time.Sleep(timeout / 3)
				msg := "\"FREE\"\n"
				if i%2 == 1 {
					msg = "\"NOT_FREE\"\n"
				}
				io.WriteString(w, msg)
			}
		})
		last := events[len(events)-1]
		if last.name != "summary" || !strings.Contains(last.data, `"lines":10,"events":10,"accepted":10`) {
			t.Fatalf("terminal event %+v after %d events", last, len(events))
		}
	})
	t.Run("idle", func(t *testing.T) {
		events := stream(t, func(w io.Writer) {
			io.WriteString(w, "\"FREE\"\n")
			time.Sleep(2 * timeout)
		})
		last := events[len(events)-1]
		if last.name != "error" || !strings.Contains(last.data, `"code":"`+CodeTraceAborted+`"`) {
			t.Fatalf("terminal event %+v, want a trace_aborted error", last)
		}
		if events[0].name != "accepted" {
			t.Errorf("first event %+v, want the verdict for the line before the stall", events[0])
		}
	})
}
