package render

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"unicode/utf8"

	"asagen/internal/core"
)

// The XML renderer emits a diagram-interchange document equivalent to the
// one the paper imported into its diagramming tool (Fig. 15): states with
// stable identifiers and annotated edges, consumable by external tooling.

// XMLDiagram is the root element of the diagram interchange document.
type XMLDiagram struct {
	XMLName   xml.Name        `xml:"stateMachineDiagram"`
	Model     string          `xml:"model,attr"`
	Parameter int             `xml:"parameter,attr"`
	Messages  []string        `xml:"messages>message"`
	States    []XMLState      `xml:"states>state"`
	Edges     []XMLTransition `xml:"transitions>transition"`
}

// XMLState is one diagram node.
type XMLState struct {
	ID          string   `xml:"id,attr"`
	Name        string   `xml:"name,attr"`
	Start       bool     `xml:"start,attr,omitempty"`
	Final       bool     `xml:"final,attr,omitempty"`
	Annotations []string `xml:"annotation,omitempty"`
}

// XMLTransition is one diagram edge.
type XMLTransition struct {
	From    string   `xml:"from,attr"`
	To      string   `xml:"to,attr"`
	Message string   `xml:"message,attr"`
	Phase   bool     `xml:"phase,attr,omitempty"`
	Actions []string `xml:"action,omitempty"`
}

// XMLRenderer renders a machine as the XML diagram document.
type XMLRenderer struct {
	// IncludeAnnotations embeds the state commentary in the document.
	IncludeAnnotations bool
	// Indent sets the marshalling indent; two spaces when empty.
	Indent string
}

// NewXMLRenderer returns a renderer with annotations enabled.
func NewXMLRenderer() *XMLRenderer {
	return &XMLRenderer{IncludeAnnotations: true}
}

// Document builds the interchange structure without marshalling it. Render
// writes the same document as xml.MarshalIndent would.
func (r *XMLRenderer) Document(m *core.StateMachine) *XMLDiagram {
	doc := &XMLDiagram{
		Model:     m.ModelName,
		Parameter: m.Parameter,
		Messages:  append([]string(nil), m.Messages...),
	}
	ids := make(map[*core.State]string, len(m.States))
	for i, s := range m.States {
		id := "s" + strconv.Itoa(i)
		ids[s] = id
		st := XMLState{
			ID:    id,
			Name:  s.Name,
			Start: s == m.Start,
			Final: s.Final,
		}
		if r.IncludeAnnotations {
			st.Annotations = append([]string(nil), s.Annotations...)
		}
		doc.States = append(doc.States, st)
	}
	for _, s := range m.States {
		for _, msg := range s.SortedMessages(m.Messages) {
			tr := s.Transitions[msg]
			doc.Edges = append(doc.Edges, XMLTransition{
				From:    ids[s],
				To:      ids[tr.Target],
				Message: msg,
				Phase:   tr.IsPhase(),
				Actions: append([]string(nil), tr.Actions...),
			})
		}
	}
	return doc
}

// Name implements Renderer.
func (r *XMLRenderer) Name() string { return "xml" }

// Render writes the machine's diagram document. The bytes are exactly
// xml.Header + xml.MarshalIndent(r.Document(m), "", indent) + "\n", written
// directly rather than through reflection: every element on its own
// indented line, no self-closing tags (an element without children closes
// on the line it opens on, so an empty list is an empty wrapper), start,
// final and phase omitted when false, and empty annotations and actions
// omitted.
func (r *XMLRenderer) Render(m *core.StateMachine) (Artifact, error) {
	indent := r.Indent
	if indent == "" {
		indent = "  "
	}
	w := &xmlWriter{indent: indent}
	w.buf = append(w.buf, xml.Header...)
	w.buf = append(w.buf, "<stateMachineDiagram"...)
	w.attr("model", m.ModelName)
	w.buf = append(w.buf, ` parameter="`...)
	w.buf = strconv.AppendInt(w.buf, int64(m.Parameter), 10)
	w.buf = append(w.buf, `">`...)

	w.open(1, "messages")
	for _, msg := range m.Messages {
		w.textElement(2, "message", msg)
	}
	w.close(1, "messages", len(m.Messages) > 0)

	ids := make(map[*core.State]int, len(m.States))
	w.open(1, "states")
	for i, s := range m.States {
		ids[s] = i
		w.line(2)
		w.buf = append(w.buf, "<state"...)
		w.id("id", i)
		w.attr("name", s.Name)
		if s == m.Start {
			w.buf = append(w.buf, ` start="true"`...)
		}
		if s.Final {
			w.buf = append(w.buf, ` final="true"`...)
		}
		w.buf = append(w.buf, '>')
		children := false
		if r.IncludeAnnotations {
			children = w.textElements(3, "annotation", s.Annotations)
		}
		w.close(2, "state", children)
	}
	w.close(1, "states", len(m.States) > 0)

	w.open(1, "transitions")
	edges := false
	for _, s := range m.States {
		for _, msg := range m.Messages {
			tr, ok := s.Transitions[msg]
			if !ok {
				continue
			}
			edges = true
			w.line(2)
			w.buf = append(w.buf, "<transition"...)
			w.id("from", ids[s])
			if to, ok := ids[tr.Target]; ok {
				w.id("to", to)
			} else {
				w.buf = append(w.buf, ` to=""`...)
			}
			w.attr("message", msg)
			if tr.IsPhase() {
				w.buf = append(w.buf, ` phase="true"`...)
			}
			w.buf = append(w.buf, '>')
			w.close(2, "transition", w.textElements(3, "action", tr.Actions))
		}
	}
	w.close(1, "transitions", edges)
	w.close(0, "stateMachineDiagram", true)
	w.buf = append(w.buf, '\n')

	return Artifact{
		Format:    r.Name(),
		MediaType: "application/xml; charset=utf-8",
		Ext:       ".xml",
		Data:      bytes.Clone(w.buf), // exact size: artefacts stay cached
	}, nil
}

// xmlWriter accumulates an indented XML document.
type xmlWriter struct {
	buf    []byte
	indent string
}

// line starts a new line indented to depth.
func (w *xmlWriter) line(depth int) {
	w.buf = append(w.buf, '\n')
	for range depth {
		w.buf = append(w.buf, w.indent...)
	}
}

// open starts element name on a line of its own.
func (w *xmlWriter) open(depth int, name string) {
	w.line(depth)
	w.buf = append(w.buf, '<')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '>')
}

// close ends element name, on a line of its own when it has children.
func (w *xmlWriter) close(depth int, name string, children bool) {
	if children {
		w.line(depth)
	}
	w.buf = append(w.buf, "</"...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '>')
}

// textElement writes <name>text</name> on a line of its own.
func (w *xmlWriter) textElement(depth int, name, text string) {
	w.open(depth, name)
	w.buf = appendXMLEscaped(w.buf, text)
	w.close(depth, name, false)
}

// textElements writes one <name>text</name> line per non-empty text, as
// omitempty does for a string slice, and reports whether it wrote any.
func (w *xmlWriter) textElements(depth int, name string, texts []string) bool {
	wrote := false
	for _, text := range texts {
		if text != "" {
			w.textElement(depth, name, text)
			wrote = true
		}
	}
	return wrote
}

// attr writes ` name="value"`.
func (w *xmlWriter) attr(name, value string) {
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `="`...)
	w.buf = appendXMLEscaped(w.buf, value)
	w.buf = append(w.buf, '"')
}

// id writes the attribute ` name="s<i>"`, the state identifier Document
// assigns.
func (w *xmlWriter) id(name string, i int) {
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `="s`...)
	w.buf = strconv.AppendInt(w.buf, int64(i), 10)
	w.buf = append(w.buf, '"')
}

// appendXMLEscaped appends s escaped with encoding/xml's table: the five
// markup characters, tab, newline and carriage return as character
// references, and U+FFFD for invalid UTF-8 and for runes outside XML's
// character range.
func appendXMLEscaped(buf []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !xmlChar(r) || r == utf8.RuneError && width == 1 {
				esc = "\uFFFD"
				break
			}
			continue
		}
		buf = append(buf, s[last:i-width]...)
		buf = append(buf, esc...)
		last = i
	}
	return append(buf, s[last:]...)
}

// xmlChar reports whether r is in XML's Char production.
func xmlChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ParseXML decodes a diagram document produced by Render, for round-trip
// tooling.
func ParseXML(data []byte) (*XMLDiagram, error) {
	var doc XMLDiagram
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("render: parse diagram: %w", err)
	}
	return &doc, nil
}
