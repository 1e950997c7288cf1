// Package lint implements almalint, a domain-aware static analyzer for the
// Almanac codebase. It machine-checks project conventions the Go compiler
// cannot see: virtual time must flow through internal/vclock, randomness
// must be explicitly seeded, the firmware layer boundary around raw flash
// operations (DESIGN.md "Static analysis & invariants"), lock discipline in
// the concurrent array/almaproto code, dropped errors, and map-iteration
// ordering hazards that would break replay determinism.
//
// The analyzer is built entirely on the standard library (go/parser,
// go/ast, go/types); see load.go for how packages are resolved without
// golang.org/x/tools.
//
// The package has one rule table (Rules, rules.go) and one entry point
// (Analyze). A rule either inspects one type-checked package at a time or
// queries the linked whole-program view package flow builds from
// per-function summaries: the call graph, the lock graph and the taint
// facts behind lockorder, walltaint and atomicmix.
//
// A finding can be suppressed with an allow comment that trails the
// offending line or stands alone on the line directly above it:
//
//	//almalint:allow <rule-id>[, <rule-id>...] reason: <justification>
//
// The reason: suffix is mandatory (enforced by the allowreason rule, whose
// own findings can never be suppressed). Suppressions are meant for the
// documented exceptions only (e.g. wall-time measurement in the harness);
// genuine violations should be fixed.
package lint

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"

	"almanac/internal/lint/flow"
)

// Finding is one rule violation.
type Finding struct {
	Rule string
	File string
	Line int
	Col  int
	Msg  string
	Hint string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Msg, f.Rule)
	if f.Hint != "" {
		s += "\n\thint: " + f.Hint
	}
	return s
}

// Rule is one row of the rule table. Exactly one of Package and Program
// is set. Analyze stamps ID onto every finding a check returns, so the
// checks themselves leave Finding.Rule empty.
type Rule struct {
	// ID is the identifier used in reports and allow comments.
	ID string
	// Doc is a one-line description of what the rule enforces.
	Doc string
	// Package reports violations found in one type-checked package.
	Package func(p *Package) []Finding
	// Program reports violations found in the linked whole-program view.
	Program func(prog *flow.Program) []Finding
}

// Analyze is the analysis: it loads the named package directories of the
// module rooted at root (the whole module when dirs is empty), runs every
// package check, extracts and links the flow summaries once, runs every
// program check, drops findings suppressed by allow comments, and returns
// the rest sorted by position. Only the loaded packages are linked, so a
// run over named directories sees no flow facts from the rest of the module.
func Analyze(root string, dirs []string, rules []Rule) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if len(dirs) == 0 {
		if pkgs, err = l.LoadAll(); err != nil {
			return nil, err
		}
	}
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	linked := slices.ContainsFunc(rules, func(r Rule) bool { return r.Program != nil })
	var out []Finding
	report := func(r Rule, fs []Finding) {
		for _, f := range fs {
			f.Rule = r.ID
			out = append(out, f)
		}
	}
	allows := allowSet{}
	var sums []flow.FuncSummary
	for _, p := range pkgs {
		allows.collect(p)
		for _, r := range rules {
			if r.Package != nil {
				report(r, r.Package(p))
			}
		}
		if linked {
			sums = append(sums, flow.Extract(&flow.Source{
				ImportPath: p.ImportPath,
				ModulePath: l.ModulePath,
				Fset:       p.Fset,
				Files:      p.Files,
				Pkg:        p.Pkg,
				Info:       p.Info,
			})...)
		}
	}
	if linked {
		prog := flow.Link(sums)
		for _, r := range rules {
			if r.Program != nil {
				report(r, r.Program(prog))
			}
		}
	}

	out = slices.DeleteFunc(out, func(f Finding) bool { return allows.allowed(f.Rule, f.File, f.Line) })
	slices.SortStableFunc(out, func(a, b Finding) int {
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		if a.Line != b.Line {
			return a.Line - b.Line
		}
		return strings.Compare(a.Rule, b.Rule)
	})
	return out, nil
}

// allowSet is the set of (file, line, rule ID) triples a directive covers.
type allowSet map[allowKey]bool

type allowKey struct {
	file string
	line int
	rule string
}

// AllowPrefix introduces a suppression comment: //almalint:allow <rules...>
const AllowPrefix = "almalint:allow"

// allowIDs returns the rule IDs an allow directive names and whether c is
// a directive at all. IDs may be comma- or space-separated; the list ends
// at the first token with a character outside [a-z], where the free-form
// reason text starts.
func allowIDs(c *ast.Comment) (ids, rest []string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	text, ok = strings.CutPrefix(text, AllowPrefix)
	if !ok {
		return nil, nil, false
	}
	rest = strings.Fields(text)
	for len(rest) > 0 {
		id := strings.Trim(rest[0], ",")
		if id == "" || strings.ContainsFunc(id, func(r rune) bool { return r < 'a' || r > 'z' }) {
			break
		}
		ids = append(ids, id)
		rest = rest[1:]
	}
	return ids, rest, true
}

// collect merges p's allow directives into s. A directive that trails
// code covers its own line only; one that stands alone on its line also
// covers the line below.
func (s allowSet) collect(p *Package) {
	for _, file := range p.Files {
		var code map[int]bool // lines a non-comment node starts or ends on
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				ids, _, ok := allowIDs(c)
				if !ok || len(ids) == 0 {
					continue
				}
				if code == nil {
					code = codeLines(p, file)
				}
				pos := p.Fset.Position(c.Pos())
				for _, id := range ids {
					s[allowKey{pos.Filename, pos.Line, id}] = true
					if !code[pos.Line] {
						s[allowKey{pos.Filename, pos.Line + 1, id}] = true
					}
				}
			}
		}
	}
}

// codeLines returns the lines of file on which some syntax node other
// than a comment starts or ends — every line that holds code, since a
// token in the middle of a multi-line node shares its line with the end
// of the operand before it or the start of the one after.
func codeLines(p *Package, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[p.Fset.Position(n.Pos()).Line] = true
		lines[p.Fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// allowed reports whether a directive covers rule at file:line.
// allowreason findings are never suppressible: they flag the directives
// themselves.
func (s allowSet) allowed(rule, file string, line int) bool {
	return rule != "allowreason" && s[allowKey{file, line, rule}]
}

// finding builds a Finding anchored at node n; Analyze fills in the rule.
func finding(p *Package, n ast.Node, msg, hint string) Finding {
	pos := p.Fset.Position(n.Pos())
	return Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Msg: msg, Hint: hint}
}

// inTestdata reports whether the package is part of the analyzer's own
// golden corpus. Corpus packages are lint targets by definition, so
// package-scoped rules treat them as in scope regardless of their name.
func inTestdata(importPath string) bool {
	return strings.Contains(importPath, "internal/lint/testdata")
}

// lastSegment returns the final element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
