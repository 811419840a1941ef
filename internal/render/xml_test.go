package render

import (
	"bytes"
	"context"
	"encoding/xml"
	"reflect"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
)

// marshalXML is the reflection-based form Render must reproduce byte for
// byte.
func marshalXML(t *testing.T, r *XMLRenderer, m *core.StateMachine) []byte {
	t.Helper()
	indent := r.Indent
	if indent == "" {
		indent = "  "
	}
	out, err := xml.MarshalIndent(r.Document(m), "", indent)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(xml.Header + string(out) + "\n")
}

// checkXML compares Render against marshalXML and, when roundTrip is set,
// checks that ParseXML recovers the document.
func checkXML(t *testing.T, label string, r *XMLRenderer, m *core.StateMachine, roundTrip bool) {
	t.Helper()
	art, err := r.Render(m)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := marshalXML(t, r, m); !bytes.Equal(art.Data, want) {
		at := firstDiff(art.Data, want)
		t.Fatalf("%s: differs from MarshalIndent at byte %d:\nrendered: %q\nmarshal:  %q",
			label, at, excerpt(art.Data, at), excerpt(want, at))
	}
	if !roundTrip {
		return
	}
	got, err := ParseXML(art.Data)
	if err != nil {
		t.Fatalf("%s: ParseXML: %v", label, err)
	}
	want := r.Document(m)
	want.XMLName = xml.Name{Local: "stateMachineDiagram"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ParseXML does not recover the document:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestXMLMatchesMarshalIndent: the hand-written XML is byte-identical to
// the encoding/xml form for every registered model at every sweep
// parameter, with the default and a custom indent and without
// annotations, and parses back to the same document.
func TestXMLMatchesMarshalIndent(t *testing.T) {
	renderers := []struct {
		name string
		r    *XMLRenderer
	}{
		{"default", NewXMLRenderer()},
		{"tab-indent", &XMLRenderer{IncludeAnnotations: true, Indent: "\t"}},
		{"no-annotations", &XMLRenderer{}},
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
				checkXML(t, name+"/r="+itoa(p)+"/"+rr.name, rr.r, machine, true)
			}
		}
	}
}

// TestXMLEscapingAndEmptyLists: hostile strings are escaped exactly as
// encoding/xml escapes them, and empty lists and empty strings come out as
// encoding/xml writes them.
func TestXMLEscapingAndEmptyLists(t *testing.T) {
	// Strings that survive a round trip unchanged.
	markup := handMachine([]string{`q"uo'te`, "a&b<c>d", "t\tl\nc\r", "lit\uFFFD", "日本"}, []string{"->say \"hi\" & <bye>", "->b"})
	markup.ModelName = `m&"<'>`
	markup.Parameter = -3
	markup.Messages = []string{"NEXT", "un&used"}
	markup.States[0].Annotations = []string{"x < y", "\ttab\r\n"}
	markup.States[4].Final = true
	for _, r := range []*XMLRenderer{NewXMLRenderer(), {Indent: "\t"}} {
		checkXML(t, "markup", r, markup, true)
	}

	// Strings encoding/xml replaces by U+FFFD (invalid UTF-8, a C0
	// control, a noncharacter, a surrogate half) and empty annotations
	// and actions, which omitempty drops.
	lossy := handMachine([]string{"bad\xff\xfeutf8", "ctl\x01", "non\uFFFE", "sur\xed\xa0\x80"}, []string{"\x7f\x00", "", "->a"})
	lossy.ModelName = "\x1b[0m"
	lossy.Messages = []string{"NEXT", ""}
	lossy.States[1].Annotations = []string{"\x00", "", "\xc3"}
	lossy.States[2].Annotations = []string{""}
	checkXML(t, "lossy", NewXMLRenderer(), lossy, false)

	// No messages, no annotations, no actions.
	empty := handMachine([]string{"a", "b"}, nil)
	empty.Messages = nil
	checkXML(t, "no messages", NewXMLRenderer(), empty, true)
	checkXML(t, "no states", NewXMLRenderer(), &core.StateMachine{ModelName: "void"}, true)
}
