package render

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"go/format"
	"strconv"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/spec"
)

// assertGofmtFixedPoint fails the test unless src is exactly what gofmt
// prints for it.
func assertGofmtFixedPoint(t *testing.T, label string, src []byte) {
	t.Helper()
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatalf("%s: gofmt: %v", label, err)
	}
	if !bytes.Equal(formatted, src) {
		t.Errorf("%s: rendered source is not gofmt's layout; first difference at byte %d:\nrendered: %q\ngofmt:    %q",
			label, firstDiff(src, formatted), excerpt(src, firstDiff(src, formatted)), excerpt(formatted, firstDiff(src, formatted)))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func excerpt(b []byte, at int) []byte {
	return b[max(0, at-60):min(len(b), at+60)]
}

// greekMethod is an ActionMethod whose names mix one-byte and two-byte
// runes in varying proportion, so aligning by bytes instead of runes would
// show.
func greekMethod(action string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' {
			return 'α' + (r - 'a')
		}
		return r
	}, DefaultActionMethod(action))
}

// TestGoSourceIsGofmtFixedPoint: for every registered model at every sweep
// parameter, the emitted source is already in gofmt's canonical layout —
// the property that lets Render skip the printer pass.
func TestGoSourceIsGofmtFixedPoint(t *testing.T) {
	renderers := []struct {
		name string
		r    *GoSourceRenderer
	}{
		{"comments", NewGoSourceRenderer("")},
		{"no-comments", &GoSourceRenderer{}},
		{"package", NewGoSourceRenderer("fsm")},
		{"greek-methods", &GoSourceRenderer{IncludeComments: true, ActionMethod: greekMethod}},
	}
	reg := models.Default()
	for _, name := range reg.Names() {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range e.SweepParams {
			model, err := e.Model(p)
			if err != nil {
				t.Fatal(err)
			}
			machine, err := core.Generate(context.Background(), model)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, p, err)
			}
			for _, rr := range renderers {
				label := name + "/r=" + itoa(p) + "/" + rr.name
				art, err := rr.r.Render(machine)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertGofmtFixedPoint(t, label, art.Data)
			}
		}
	}
}

// handMachine builds a machine whose states carry the given names, linked
// in a ring by one message that performs the given actions in turn.
func handMachine(names, actions []string) *core.StateMachine {
	m := &core.StateMachine{ModelName: "hand", Parameter: 1, Messages: []string{"NEXT"}}
	for _, name := range names {
		m.States = append(m.States, &core.State{Name: name, Transitions: map[string]*core.Transition{}})
	}
	for i, s := range m.States {
		tr := &core.Transition{Message: "NEXT", Target: m.States[(i+1)%len(m.States)]}
		if len(actions) > 0 {
			tr.Actions = []string{actions[i%len(actions)]}
		}
		s.Transitions["NEXT"] = tr
	}
	m.Start = m.States[0]
	return m
}

// TestGoSourceAlignmentSections: state-const keys that straddle go/printer's
// 40-byte threshold with size ratios above 2.5 reach exprList's
// section-break branch, which no built-in model does (no sweep key exceeds
// 21 bytes). Non-ASCII names check that widths are counted in runes.
func TestGoSourceAlignmentSections(t *testing.T) {
	long := func(n int) string { return strings.Repeat("x", n) }
	names := []string{
		"a", "b/1", // short keys: one section
		long(39),           // 45-byte key after short ones: ratio > 2.5, breaks
		long(36), long(60), // large keys near the mean: no break
		"c",        // small after large: ratio <= 0.4, breaks
		"é/ü", "ζ", // multi-byte runes in a section
		long(20), long(200), // breaks again
		"d", "e",
	}
	machine := handMachine(names, []string{"->vote", "->ünïcode", "->x"})
	for _, r := range []*GoSourceRenderer{NewGoSourceRenderer("hand"), {IncludeComments: true, ActionMethod: greekMethod}} {
		art, err := r.Render(machine)
		if err != nil {
			t.Fatal(err)
		}
		assertGofmtFixedPoint(t, "hand", art.Data)
		// The value column must move at least twice, or the section
		// breaks were not exercised.
		columns := map[int]bool{}
		body := string(art.Data)
		body = body[strings.Index(body, "var stateNames"):]
		body = body[:strings.Index(body, "\n}\n")]
		for _, line := range strings.Split(body, "\n")[1:] {
			columns[strings.Index(line, `"`)] = true
		}
		if len(columns) < 3 {
			t.Errorf("stateNames has %d value columns, want at least 3:\n%s", len(columns), body)
		}
	}
}

// TestGoSourceCommentText: comment text is emitted as gofmt prints it —
// carriage returns dropped, trailing blanks trimmed — and text that gofmt
// restructures still renders to gofmt's bytes. That includes spec strings
// in doc comments, which gofmt reprints through go/doc/comment: the model
// name (package doc), a component name (State doc) and a message name
// (Receive doc).
func TestGoSourceCommentText(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		model, action, annotation string
		component, message        string // "c" and "NEXT" when empty
		wantCanonical             bool
		wantInComments, pkg       string
		method                    func(string) string
	}{
		{name: "trailing blanks", model: "m", action: "->vote  ", annotation: "x \t", wantCanonical: true, wantInComments: "() // ->vote\n"},
		{name: "carriage return", model: "m\r", action: "->a\rb", annotation: "x\ry", wantCanonical: true, wantInComments: "// xy\n"},
		{name: "blank action", model: "m", action: " \r", wantCanonical: true, wantInComments: "() //\n"},
		{name: "unicode", model: "mödel", action: "->ünï", annotation: "naïve", wantCanonical: true, wantInComments: "// naïve\n"},
		{name: "comment close", model: "m", action: "->a */ b", annotation: "*/", wantCanonical: true, wantInComments: "// */\n"},
		{name: "doc text", model: "a\tb [Machine] https://example.com/x  y", action: "->x", annotation: "ok", wantCanonical: true, wantInComments: "// a\tb [Machine] https://example.com/x  y protocol"},
		{name: "single quotes", model: "it's", action: "->x", annotation: "''", component: "`c`", message: "'N'", wantCanonical: true, wantInComments: "// ''\n"},
		{name: "newline", model: "m", action: "->x", annotation: "a\nb", wantInComments: "\tb\n"},
		{name: "build tag", model: "m", action: "+build linux", annotation: "ok"},
		{name: "indented doc", model: "  m", action: "->x", annotation: "ok"},
		{name: "empty model", model: "", action: "->x", annotation: "ok"},
		{name: "model apostrophes", model: "it''s", action: "->x", annotation: "ok", wantInComments: "// it\u201ds protocol"},
		{name: "model backquotes", model: "a``b", action: "->x", annotation: "ok", wantInComments: "// a\u201cb protocol"},
		{name: "component apostrophes", model: "m", action: "->x", annotation: "ok", component: "it''s"},
		{name: "component backquotes", model: "m", action: "->x", annotation: "ok", component: "a``b"},
		{name: "message apostrophes", model: "m", action: "->x", annotation: "ok", message: "it''s"},
		{name: "message backquotes", model: "m", action: "->x", annotation: "ok", message: "a``b"},
		{name: "package clause", model: "m", action: "->x", annotation: "ok", wantInComments: "package hand // x\n", pkg: "hand // x"},
		{name: "method name", model: "m", action: "->x", annotation: "ok", wantInComments: "\tSend()", method: func(string) string { return "Send\r" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			machine := handMachine([]string{"a", "b"}, []string{tc.action})
			machine.ModelName = tc.model
			machine.States[0].Annotations = []string{tc.annotation}
			machine.Components = []core.StateComponent{core.NewBoolComponent(cmp.Or(tc.component, "c"))}
			if tc.message != "" {
				machine.Messages = []string{tc.message}
				for _, s := range machine.States {
					tr := s.Transitions["NEXT"]
					tr.Message = tc.message
					s.Transitions = map[string]*core.Transition{tc.message: tr}
				}
			}
			r := NewGoSourceRenderer(tc.pkg)
			if r.PackageName == "" {
				r.PackageName = "hand"
			}
			if tc.method != nil {
				r.ActionMethod = tc.method
			}
			raw, canonical, err := r.emit(machine)
			if err != nil {
				t.Fatal(err)
			}
			if canonical != tc.wantCanonical {
				t.Errorf("canonical = %v, want %v", canonical, tc.wantCanonical)
			}
			want, err := format.Source([]byte(raw))
			if err != nil {
				t.Fatalf("gofmt of the emitted source: %v", err)
			}
			art, err := r.Render(machine)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(art.Data, want) {
				t.Errorf("render differs from gofmt of the emitted source:\n%s\nwant:\n%s", art.Data, want)
			}
			if canonical {
				assertGofmtFixedPoint(t, tc.name, art.Data)
			}
			if !strings.Contains(string(art.Data), tc.wantInComments) {
				t.Errorf("output lacks %q", tc.wantInComments)
			}
		})
	}
}

// FuzzGoSourceCanonical compiles arbitrary spec documents, generates the
// machine and renders it as Go source. Render must fail exactly when gofmt
// rejects the emitted source, and otherwise return the bytes gofmt makes
// of it, which gofmt leaves unchanged.
//
// Run locally with:
//
//	go test ./internal/render -run='^$' -fuzz=FuzzGoSourceCanonical -fuzztime=30s
func FuzzGoSourceCanonical(f *testing.F) {
	if _, err := spec.ParseAndCompile([]byte(terminationSpec)); err != nil {
		f.Fatalf("terminationSpec: %v", err)
	}
	// FuzzCompile's corpus.
	f.Add([]byte(terminationSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"m","components":[{"name":"c","kind":"int","max":{"param":true}}],` +
		`"messages":["GO"],"rules":[{"message":"GO","set":[{"component":"c","add":1}]}]}`))
	f.Add([]byte(`{"name":"m","default_param":-3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"m","components":[],"messages":[],"rules":[]} `))
	// Hostile actions, annotations and names.
	for _, s := range []string{"->vote  ", "x\ry", "->a\t", "\ttab", "->a */ b", "/* x", "->ünï", "日本語",
		"line\nbreak", "+build linux", " lead", "\x00", "\xff", "it''s", "a``b"} {
		f.Add(hostileSpec(s, s, s))
		f.Add(hostileSpec("m", s, "fine"))
		f.Add(hostileSpec("m", "->x", s))
		f.Add(hostileSpec(s, "->x", "fine"))
	}
	// Doc comment text: component and message names.
	for _, s := range []string{"it''s", "a``b", "#x", "- x", "[x]: https://example.com"} {
		f.Add([]byte(`{"name":"m","components":[{"name":` + strconv.Quote(s) + `,"kind":"bool"}],` +
			`"messages":[` + strconv.Quote(s) + `],"rules":[{"message":` + strconv.Quote(s) +
			`,"set":[{"component":` + strconv.Quote(s) + `,"add":1}]}]}`))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := spec.ParseAndCompile(data)
		if err != nil {
			return
		}
		model, err := c.Model(0)
		if err != nil {
			return
		}
		size := 1
		for _, comp := range model.Components() {
			size *= max(comp.Cardinality(), 1)
			if size > 1<<12 {
				return // keep each input fast
			}
		}
		machine, err := core.Generate(context.Background(), model)
		if err != nil {
			return
		}
		r := NewGoSourceRenderer("")
		raw, canonical, err := r.emit(machine)
		if err != nil {
			return
		}
		want, gofmtErr := format.Source([]byte(raw))
		art, err := r.Render(machine)
		if (err == nil) != (gofmtErr == nil) {
			t.Fatalf("render error %v, gofmt error %v", err, gofmtErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(art.Data, want) {
			t.Fatalf("render differs from gofmt of the emitted source at byte %d:\nrendered: %q\ngofmt:    %q",
				firstDiff(art.Data, want), excerpt(art.Data, firstDiff(art.Data, want)), excerpt(want, firstDiff(art.Data, want)))
		}
		// gofmt is not always stable on the comment text it restructures
		// (it rewrites "+build" lines it finds anywhere), so there the
		// render matches gofmt's bytes and nothing more is asked.
		if canonical {
			assertGofmtFixedPoint(t, "fuzz", art.Data)
		}
	})
}

// terminationSpec is the declarative port of the termination-detection
// model that seeds FuzzCompile.
const terminationSpec = `{"name":"termination-spec","model_name":"termination-detection",` +
	`"param_name":"fan-out bound","default_param":4,"sweep_params":[1,2,4,8],` +
	`"components":[{"name":"active","kind":"bool"},{"name":"outstanding","kind":"int","max":{"param":true}}],` +
	`"messages":["TASK","SPAWN","CHILD_DONE","IDLE"],"rules":[` +
	`{"message":"TASK","when":[{"component":"active","op":"==","value":{}}],"set":[{"component":"active","set":{"offset":1}}],"annotations":["Activated by an incoming task."]},` +
	`{"message":"SPAWN","when":[{"component":"active","op":"==","value":{"offset":1}},{"component":"outstanding","op":"<","value":{"param":true}}],"set":[{"component":"outstanding","add":1}],"actions":["->task"]},` +
	`{"message":"CHILD_DONE","when":[{"component":"outstanding","op":"==","value":{"offset":1}},{"component":"active","op":"==","value":{}}],"set":[{"component":"outstanding","add":-1}],"actions":["->done"],"finish":true},` +
	`{"message":"CHILD_DONE","when":[{"component":"outstanding","op":">=","value":{"offset":1}}],"set":[{"component":"outstanding","add":-1}]},` +
	`{"message":"IDLE","when":[{"component":"active","op":"==","value":{"offset":1}},{"component":"outstanding","op":"==","value":{}}],"set":[{"component":"active","set":{}}],"actions":["->done"]}],` +
	`"describe":[{"when":[{"component":"active","op":"==","value":{"offset":1}}],"text":"Working; {outstanding} children outstanding."}]}`

// hostileSpec returns a small spec document whose model name, action and
// state description are the given strings.
func hostileSpec(modelName, action, describe string) []byte {
	doc := map[string]any{
		"name":       "hostile",
		"model_name": modelName,
		"components": []any{map[string]any{"name": "on", "kind": "bool"}},
		"messages":   []string{"FLIP", "ST\rOP"},
		"rules": []any{
			map[string]any{"message": "FLIP", "set": []any{map[string]any{"component": "on", "add": 1}},
				"when": []any{map[string]any{"component": "on", "op": "==", "value": map[string]any{}}}, "actions": []string{action}},
			map[string]any{"message": "ST\rOP", "actions": []string{"->stop", action}, "finish": true},
		},
		"describe": []any{map[string]any{"text": describe}},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}
