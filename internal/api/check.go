package api

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"asagen/internal/artifact"
	"asagen/internal/trace"
)

// handleCheck serves POST /v1/models/{model}/check: the request body is a
// trace (JSON Lines by default, or text decoded through regex transition
// patterns) streamed through the model's generated machine, and the
// response is a Server-Sent Events stream with one event per verdict.
// Event names are the verdict kinds and each data payload is the
// canonical verdict JSON — byte-identical to what `fsmgen check -json`
// and the SDK iterator emit for the same trace.
//
// The trace is judged at line rate as the body arrives; neither side
// buffers the whole trace, so arbitrarily long streams check in bounded
// memory. Closing the request mid-stream cancels the run server-side.
//
// Preflight failures (unknown model, bad parameter, bad pattern) are
// ordinary JSON-envelope errors. Once the event stream has started,
// failures arrive as a terminal `error` event whose data is the same
// envelope: code `bad_trace` for undecodable input, `trace_aborted` for
// a failed trace read. A completed run — conforming or violating, per
// its `stats` — ends with a `summary` event.
func (h *Handler) handleCheck(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	param := 0
	if rs := q.Get("r"); rs != "" {
		var err error
		if param, err = strconv.Atoi(rs); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadParameter,
				"bad parameter "+strconv.Quote(rs)+": "+err.Error())
			return
		}
	}
	tolerance := 0
	if ts := q.Get("tolerance"); ts != "" {
		n, err := strconv.Atoi(ts)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeBadParameter,
				"bad tolerance "+strconv.Quote(ts)+": want a non-negative integer")
			return
		}
		tolerance = n
	}
	keepGoing := false
	switch kg := q.Get("keep_going"); kg {
	case "", "0", "false":
	case "1", "true":
		keepGoing = true
	default:
		writeError(w, http.StatusBadRequest, CodeBadParameter,
			"bad keep_going "+strconv.Quote(kg)+": want 1/true or 0/false")
		return
	}
	var rules []trace.Rule
	for _, pattern := range q["match"] {
		rule, err := trace.ParseRule(pattern)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadTrace, err.Error())
			return
		}
		rules = append(rules, rule)
	}
	format := q.Get("format")
	switch format {
	case "":
		format = trace.FormatJSONL
		if len(rules) > 0 {
			format = trace.FormatRegex
		}
	case trace.FormatJSONL, trace.FormatRegex:
	default:
		writeError(w, http.StatusBadRequest, CodeBadTrace,
			"unknown trace format "+strconv.Quote(format)+" (known: jsonl, regex)")
		return
	}

	machine, _, _, err := h.p.Machine(r.Context(), r.PathValue("model"), param)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			return // client gone before generation finished
		case errors.Is(err, artifact.ErrUnknownModel):
			writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
		default:
			// Model construction rejected the parameter value.
			writeError(w, http.StatusBadRequest, CodeBadParameter, err.Error())
		}
		return
	}
	rc := http.NewResponseController(w)
	body := &flushBeforeRead{body: r.Body, rc: rc}
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		body.readIdle, body.writeIdle = srv.ReadTimeout, srv.WriteTimeout
	}
	dec, err := trace.NewDecoder(format, body, rules)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadTrace, err.Error())
		return
	}

	// Preflight is clean: commit to the event stream. From here failures
	// are in-band `error` events, not status codes.
	header := w.Header()
	header.Set("Content-Type", "text/event-stream; charset=utf-8")
	header.Set("Cache-Control", "no-store")
	header.Set("X-Accel-Buffering", "no")
	// Verdicts are written while the trace is still arriving. By default
	// the HTTP/1 server consumes the unread body before it sends the
	// response headers: a deadlock on a live trace. Full duplex lets reads
	// and writes interleave, and a body read to EOF leaves the connection
	// reusable. HTTP/2 streams are always full duplex. The call fails
	// only on a ResponseWriter that hides the connection, and then the
	// first flush fails too and ends the stream.
	_ = rc.EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	// Nothing is flushed here: the body's first read flushes the headers,
	// each later read the events written since, and the server flushes
	// the rest when the handler returns.
	var buf []byte
	writeEvent := func(name string, data []byte) bool {
		buf = buf[:0]
		buf = append(buf, "event: "...)
		buf = append(buf, name...)
		buf = append(buf, "\ndata: "...)
		buf = append(buf, data...)
		buf = append(buf, "\n\n"...)
		_, err := w.Write(buf)
		return err == nil
	}
	var verdictBuf []byte
	opts := []trace.MonitorOption{
		trace.WithTarget("", machine),
		trace.WithTolerance(tolerance),
		trace.WithObserver(trace.ObserverFunc(func(v trace.Verdict) bool {
			verdictBuf = v.AppendJSON(verdictBuf[:0])
			return writeEvent(v.Kind.String(), verdictBuf)
		})),
	}
	if keepGoing {
		opts = append(opts, trace.WithKeepGoing())
	}
	mon, err := trace.NewMonitor(opts...)
	if err != nil {
		writeEvent("error", envelopeJSON(CodeBadTrace, err.Error()))
		return
	}

	rep, err := mon.Run(r.Context(), dec)
	var de *trace.DecodeError
	switch {
	case errors.Is(err, trace.ErrStopped):
		// A verdict write or flush failed; the client is gone.
	case errors.Is(err, os.ErrDeadlineExceeded):
		// The trace went idle for longer than the server's ReadTimeout.
		// The failed read cancelled the request context, but the client
		// is still listening: tell it why the stream ends.
		writeEvent("error", envelopeJSON(CodeTraceAborted, err.Error()))
	case r.Context().Err() != nil:
		// Cancelled mid-run; nothing useful can be written.
	case err == nil:
		verdictBuf = trace.Terminal(rep, nil).AppendJSON(verdictBuf[:0])
		writeEvent("summary", verdictBuf)
	case errors.As(err, &de):
		writeEvent("error", envelopeJSON(CodeBadTrace, de.Error()))
	default:
		writeEvent("error", envelopeJSON(CodeTraceAborted, err.Error()))
	}
}

// flushBeforeRead is the trace body as the monitor reads it. Before each
// read it flushes the events written so far, so no verdict waits behind
// input that has not arrived yet, while a burst of lines that arrived
// together costs one flush instead of one per verdict. It also turns the
// server's total ReadTimeout and WriteTimeout into idle timeouts: each
// read may wait up to ReadTimeout for the client, and the events for the
// input it returns have WriteTimeout to reach the client, so a live
// trace may stream for as long as it keeps moving.
type flushBeforeRead struct {
	body                io.Reader
	rc                  *http.ResponseController
	readIdle, writeIdle time.Duration
}

// Read implements io.Reader. Deadline errors are dropped: a connection
// that cannot take a deadline keeps the server's total timeouts.
func (f *flushBeforeRead) Read(p []byte) (int, error) {
	if f.rc.Flush() != nil {
		return 0, trace.ErrStopped
	}
	if f.readIdle > 0 {
		_ = f.rc.SetReadDeadline(time.Now().Add(f.readIdle))
	}
	n, err := f.body.Read(p)
	if f.writeIdle > 0 {
		_ = f.rc.SetWriteDeadline(time.Now().Add(f.writeIdle))
	}
	return n, err
}

// envelopeJSON renders the standard error envelope as a compact JSON
// line for use as an SSE data payload.
func envelopeJSON(code, message string) []byte {
	data, err := json.Marshal(errorEnvelope{Error: errorBody{Code: code, Message: message}})
	if err != nil {
		return []byte(`{"error":{"code":"` + code + `","message":"encoding failed"}}`)
	}
	return data
}
