package render

import (
	"fmt"
	"go/doc/comment"
	"go/format"
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"asagen/internal/core"
)

// GoSourceRenderer renders a generated machine as a compilable Go source
// implementation of the protocol (the paper's Fig. 16): one handler method
// per message type, each a switch over the machine states, with phase
// transitions invoking action methods on an application-supplied interface
// (§5.1: "the rendering code is parameterised with a class defining
// appropriate action methods").
//
// The renderer is completely generic with respect to the algorithm being
// modelled — it consumes only the abstract machine representation.
type GoSourceRenderer struct {
	// PackageName names the generated package; when empty it is derived
	// from the machine (see DefaultPackageName).
	PackageName string
	// ActionMethod maps an action string ("->vote") to the method name of
	// the Actions interface ("SendVote"). DefaultActionMethod when nil.
	ActionMethod func(action string) string
	// IncludeComments embeds the generated state commentary (Fig. 14) as
	// doc comments on the state constants.
	IncludeComments bool
}

// NewGoSourceRenderer returns a renderer for the given package name with
// commentary enabled.
func NewGoSourceRenderer(pkg string) *GoSourceRenderer {
	return &GoSourceRenderer{PackageName: pkg, IncludeComments: true}
}

// DefaultActionMethod converts an action string to a Go method name:
// "->vote" becomes "SendVote", "->not free" becomes "SendNotFree".
func DefaultActionMethod(action string) string {
	return "Send" + camel(strings.TrimPrefix(action, "->"))
}

// DefaultPackageName derives a package name from the machine identity:
// the model name sanitized to a valid Go identifier plus the parameter,
// e.g. "bftcommit4" for the commit model at r=4. Model names are
// user-controlled (dynamically registered specs), so the derivation must
// produce a compilable package clause for any input.
func DefaultPackageName(m *core.StateMachine) string {
	return SanitizePackageName(m.ModelName) + itoa(m.Parameter)
}

// SanitizePackageName maps an arbitrary model name onto a valid Go
// package identifier: lower-cased, every rune that is not a Unicode
// letter or digit dropped, "machine" when nothing survives, and an "m"
// prefix when the survivors start with a digit or collide with a Go
// keyword (neither is a legal identifier).
func SanitizePackageName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "machine"
	}
	s := b.String()
	for _, first := range s {
		if unicode.IsDigit(first) {
			s = "m" + s
		}
		break
	}
	if token.IsKeyword(s) {
		s = "m" + s
	}
	return s
}

// Name implements Renderer.
func (r *GoSourceRenderer) Name() string { return "go" }

// Render produces Go source for the machine, laid out exactly as gofmt
// would print it. Rendering fails if the machine is empty or the emitted
// source does not parse — which would indicate a renderer bug, surfaced as
// an error rather than a broken artefact.
func (r *GoSourceRenderer) Render(m *core.StateMachine) (Artifact, error) {
	src, err := r.renderSource(m)
	if err != nil {
		return Artifact{}, err
	}
	return Artifact{
		Format:    r.Name(),
		MediaType: "text/x-go; charset=utf-8",
		Ext:       ".go",
		Data:      []byte(src),
	}, nil
}

// renderSource emits the source and checks that it parses. Text that gofmt
// would restructure rather than copy (see goSource.restructured) is the one
// case still handed to go/format, so such artefacts keep the bytes gofmt
// gives them.
func (r *GoSourceRenderer) renderSource(m *core.StateMachine) (string, error) {
	src, canonical, err := r.emit(m)
	if err != nil {
		return "", err
	}
	if !canonical {
		formatted, err := format.Source([]byte(src))
		if err != nil {
			return "", parseError(m, err)
		}
		return string(formatted), nil
	}
	// The parse format.Source would do, minus comment collection.
	if _, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution); err != nil {
		return "", parseError(m, err)
	}
	return src, nil
}

func parseError(m *core.StateMachine, err error) error {
	return fmt.Errorf("render: go source for %s: generated code does not parse: %w", m.ModelName, err)
}

// goSource is the state of one Go source emission: the output buffer, the
// names computed once per render, and whether some text needs gofmt's
// printer.
type goSource struct {
	b       *Buffer
	consts  map[*core.State]string
	actions []string          // the action vocabulary in first-use order
	methods map[string]string // action → Actions method name
	// restructured is set by text that gofmt does more to than drop
	// carriage returns from comments and trim trailing white space: a
	// newline or another control character in a comment, a "+build" line,
	// doc comment text that go/doc/comment reprints differently (see
	// docComment), or a package or method name that is not an identifier.
	restructured bool
}

// emit writes the machine's Go source in gofmt's canonical layout. The
// second result is false when some text makes that layout unreliable
// (goSource.restructured).
func (r *GoSourceRenderer) emit(m *core.StateMachine) (string, bool, error) {
	if m.Start == nil || len(m.States) == 0 {
		return "", false, fmt.Errorf("render: go source: machine has no states")
	}
	actionMethod := r.ActionMethod
	if actionMethod == nil {
		actionMethod = DefaultActionMethod
	}
	pkg := r.PackageName
	if pkg == "" {
		pkg = DefaultPackageName(m)
	}

	g := &goSource{
		b:       NewBuffer(),
		consts:  make(map[*core.State]string, len(m.States)),
		methods: map[string]string{},
		// A caller-chosen name that is not an identifier is one gofmt
		// rejects or respaces.
		restructured: !token.IsIdentifier(pkg),
	}
	// Collect the action vocabulary in first-use order.
	for _, s := range m.States {
		for _, msg := range m.Messages {
			tr := s.Transition(msg)
			if tr == nil {
				continue
			}
			for _, a := range tr.Actions {
				if _, ok := g.methods[a]; !ok {
					method := actionMethod(a)
					g.restructured = g.restructured || !token.IsIdentifier(method)
					g.methods[a] = method
					g.actions = append(g.actions, a)
				}
			}
		}
	}

	model := g.inline(m.ModelName)
	b := g.b
	b.AddLn("// Code generated by asagen fsmgen (model ", model,
		", parameter ", itoa(m.Parameter), "). DO NOT EDIT.")
	b.BlankLn()
	g.docComment("Package "+pkg+" is a generated state-machine implementation of the",
		model+" protocol for parameter "+itoa(m.Parameter)+".")
	b.AddLn("package ", pkg)
	b.BlankLn()

	g.docComment("State enumerates the machine states. State names encode the values of",
		"the model's state components: "+g.inline(componentList(m))+".")
	b.AddLn("type State int")
	b.BlankLn()
	g.emitConsts(m, r.IncludeComments)
	g.emitNames(m)
	g.emitActionsInterface()
	g.emitMachine(m)
	g.emitHandlers(m)
	g.emitDispatch(m)
	return b.String(), !g.restructured, nil
}

// inline returns text placed inside a line comment as gofmt prints it:
// the scanner drops carriage returns from comments.
func (g *goSource) inline(s string) string {
	for _, c := range []byte(s) {
		if c < ' ' && c != '\t' && c != '\r' {
			g.restructured = true
			break
		}
	}
	return strings.ReplaceAll(s, "\r", "")
}

// buildConstraint reports whether a line comment starting with text reads
// as a "// +build" line, which gofmt moves to the top of the file.
func buildConstraint(text string) bool {
	return strings.HasPrefix(strings.TrimSpace(text), "+build")
}

// docComment emits a top-level doc comment holding the given lines, which
// carry no newline. gofmt reprints doc comments through go/doc/comment,
// which turns a pair of backquotes or apostrophes into a curly quote, an
// indented line into a code block, and so on; so the text gets the same
// parse and print, and text that would come out differently is left to
// go/format.
func (g *goSource) docComment(lines ...string) {
	text := strings.Join(lines, "\n") + "\n"
	var p comment.Parser
	var pr comment.Printer
	if string(pr.Comment(p.Parse(text))) != text {
		g.restructured = true
	}
	for _, line := range lines {
		if line == "" || line[0] == '\t' || buildConstraint(line) {
			g.restructured = true
		}
		g.b.AddLn("// ", line)
	}
}

// comment emits lead followed by a line comment holding text, as gofmt
// prints it: carriage returns dropped and trailing white space trimmed.
func (g *goSource) comment(lead, text string) {
	text = strings.TrimRightFunc(g.inline(text), unicode.IsSpace)
	if buildConstraint(text) {
		g.restructured = true
	}
	if text == "" {
		g.b.AddLn(lead, "//")
		return
	}
	g.b.AddLn(lead, "// ", text)
}

// stateConst returns the state's constant name, computed once per render.
func (g *goSource) stateConst(s *core.State) string {
	c, ok := g.consts[s]
	if !ok {
		c = stateConst(s)
		g.consts[s] = c
	}
	return c
}

func componentList(m *core.StateMachine) string {
	names := make([]string, len(m.Components))
	for i, c := range m.Components {
		names[i] = c.Name()
	}
	return strings.Join(names, "/")
}

func (g *goSource) emitConsts(m *core.StateMachine, comments bool) {
	b := g.b
	b.AddLn("// Machine states. The zero State is invalid.")
	b.AddLn("const (")
	b.IncreaseIndent()
	b.AddLn("StateInvalid State = iota")
	for _, s := range m.States {
		if comments {
			for _, line := range s.Annotations {
				g.comment("", line)
			}
		}
		b.AddLn(g.stateConst(s))
	}
	b.DecreaseIndent()
	b.AddLn(")")
	b.BlankLn()
}

// emitNames writes the stateNames map literal with its values aligned the
// way go/printer aligns key-value lists: each "key:" cell is padded to the
// widest one in its section plus one blank (text/tabwriter widths, in
// runes), and exprList starts a new section before a key whose byte size
// is out of proportion to the geometric mean of the keys before it.
func (g *goSource) emitNames(m *core.StateMachine) {
	b := g.b
	b.AddLn("// stateNames maps states to their encoded names.")
	b.AddLn("var stateNames = map[State]string{")
	b.IncreaseIndent()
	start, lnsum := 0, 0.0 // lnsum adds up ln(key size) over the section
	for i, s := range m.States {
		size := len(g.stateConst(s))
		if i > start && newAlignSection(len(g.stateConst(m.States[i-1])), size, lnsum/float64(i-start)) {
			g.emitNameSection(m.States[start:i])
			start, lnsum = i, 0
		}
		lnsum += math.Log(float64(size))
	}
	g.emitNameSection(m.States[start:])
	b.DecreaseIndent()
	b.AddLn("}")
	b.BlankLn()
	b.AddLn("// String returns the encoded state name.")
	b.AddLn("func (s State) String() string {")
	b.IncreaseIndent()
	b.AddLn("if name, ok := stateNames[s]; ok {")
	b.IncreaseIndent()
	b.AddLn("return name")
	b.DecreaseIndent()
	b.AddLn("}")
	b.AddLn("return \"INVALID\"")
	b.DecreaseIndent()
	b.AddLn("}")
	b.BlankLn()
}

// newAlignSection is go/printer's exprList rule for breaking the alignment
// of a key-value list before a key of the given byte size: keys of at most
// 40 bytes following one of at most 40 bytes never break; otherwise the
// list breaks when the size differs by a factor of 2.5 or more from the
// geometric mean, exp(meanLn), of the key sizes since the section began.
func newAlignSection(prevSize, size int, meanLn float64) bool {
	const smallSize, ratioLimit = 40, 2.5
	if prevSize <= smallSize && size <= smallSize {
		return false
	}
	ratio := float64(size) / math.Exp(meanLn)
	return ratioLimit*ratio <= 1 || ratioLimit <= ratio
}

func (g *goSource) emitNameSection(states []*core.State) {
	width := 0
	for _, s := range states {
		width = max(width, utf8.RuneCountInString(g.stateConst(s)))
	}
	for _, s := range states {
		key := g.stateConst(s)
		g.b.AddLn(key, ":", strings.Repeat(" ", width-utf8.RuneCountInString(key)+1), strconv.Quote(s.Name), ",")
	}
}

// emitActionsInterface writes the Actions interface with the trailing
// comments aligned one blank past the widest method, as gofmt aligns them.
func (g *goSource) emitActionsInterface() {
	b := g.b
	b.AddLn("// Actions receives the outgoing messages sent on phase transitions. The")
	b.AddLn("// embedding application supplies the transport.")
	b.AddLn("type Actions interface {")
	b.IncreaseIndent()
	width := 0
	for _, a := range g.actions {
		width = max(width, utf8.RuneCountInString(g.methods[a]))
	}
	for _, a := range g.actions {
		method := g.methods[a]
		g.comment(method+"()"+strings.Repeat(" ", width-utf8.RuneCountInString(method)+1), a)
	}
	b.DecreaseIndent()
	b.AddLn("}")
	b.BlankLn()
	b.AddLn("// NopActions discards all actions.")
	b.AddLn("type NopActions struct{}")
	b.BlankLn()
	for _, a := range g.actions {
		method := g.methods[a]
		b.AddLn("// ", method, " implements Actions.")
		b.AddLn("func (NopActions) ", method, "() {}")
		b.BlankLn()
	}
}

func (g *goSource) emitMachine(m *core.StateMachine) {
	b := g.b
	b.AddLn("// Machine is the generated protocol implementation: the current state plus")
	b.AddLn("// the action sink.")
	b.AddLn("type Machine struct {")
	b.IncreaseIndent()
	b.AddLn("state   State")
	b.AddLn("actions Actions")
	b.DecreaseIndent()
	b.AddLn("}")
	b.BlankLn()
	b.AddLn("// New returns a machine positioned at the start state. A nil actions sink")
	b.AddLn("// discards outgoing messages.")
	b.AddLn("func New(actions Actions) *Machine {")
	b.IncreaseIndent()
	b.AddLn("if actions == nil {")
	b.IncreaseIndent()
	b.AddLn("actions = NopActions{}")
	b.DecreaseIndent()
	b.AddLn("}")
	b.AddLn("return &Machine{state: ", g.stateConst(m.Start), ", actions: actions}")
	b.DecreaseIndent()
	b.AddLn("}")
	b.BlankLn()
	b.AddLn("// State returns the current machine state.")
	b.AddLn("func (m *Machine) State() State { return m.state }")
	b.BlankLn()
	if m.Finish != nil {
		b.AddLn("// Finished reports whether the machine has reached the finish state.")
		b.AddLn("func (m *Machine) Finished() bool { return m.state == ", g.stateConst(m.Finish), " }")
		b.BlankLn()
	} else {
		b.AddLn("// Finished reports whether the machine has reached a terminal state;")
		b.AddLn("// this machine has none.")
		b.AddLn("func (m *Machine) Finished() bool { return false }")
		b.BlankLn()
	}
}

func (g *goSource) emitHandlers(m *core.StateMachine) {
	b := g.b
	for _, msg := range m.Messages {
		name := camel(msg)
		g.docComment("Receive"+name+" handles an incoming "+g.inline(msg)+" message. States in which",
			"the message is not applicable ignore it.")
		b.AddLn("func (m *Machine) Receive", name, "() {")
		b.IncreaseIndent()
		b.AddLn("switch m.state {")
		b.BlankLn()
		for _, s := range m.States {
			tr := s.Transition(msg)
			if tr == nil {
				continue
			}
			b.AddLn("case ", g.stateConst(s), ":")
			b.IncreaseIndent()
			for _, a := range tr.Actions {
				b.AddLn("m.actions.", g.methods[a], "()")
			}
			b.AddLn("m.state = ", g.stateConst(tr.Target))
			b.DecreaseIndent()
			b.BlankLn()
		}
		b.AddLn("}")
		b.DecreaseIndent()
		b.AddLn("}")
		b.BlankLn()
	}
}

func (g *goSource) emitDispatch(m *core.StateMachine) {
	b := g.b
	b.AddLn("// Receive dispatches a message by its model name. It reports whether the")
	b.AddLn("// message type is known to the machine.")
	b.AddLn("func (m *Machine) Receive(msg string) bool {")
	b.IncreaseIndent()
	b.AddLn("switch msg {")
	for _, msg := range m.Messages {
		b.AddLn("case ", strconv.Quote(msg), ":")
		b.IncreaseIndent()
		b.AddLn("m.Receive", camel(msg), "()")
		b.DecreaseIndent()
	}
	b.AddLn("default:")
	b.IncreaseIndent()
	b.AddLn("return false")
	b.DecreaseIndent()
	b.AddLn("}")
	b.AddLn("return true")
	b.DecreaseIndent()
	b.AddLn("}")
}

// stateConst returns the Go constant name for a state: the encoded state
// name with every non-alphanumeric rune mapped to '_'.
func stateConst(s *core.State) string {
	var b strings.Builder
	b.WriteString("State_")
	for _, r := range s.Name {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
	}
	return b.String()
}

// camel converts a model identifier ("not free", "NOT_FREE") to CamelCase
// ("NotFree").
func camel(s string) string {
	var b strings.Builder
	upperNext := true
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			upperNext = true
			continue
		}
		if upperNext {
			b.WriteRune(unicode.ToUpper(r))
			upperNext = false
		} else {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}
