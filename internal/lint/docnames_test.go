package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docNames maps each library package of the module, by package name, to
// the names it declares at top level, the names of its methods, since the
// docs also write a method as pkg.Method, and every Type.Member: the
// methods and fields of each of its types. Every .go file counts, tests
// and every build variant included, since a doc may name any of them.
type docNames map[string]map[string]bool

func loadDocNames(t *testing.T, root string) docNames {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	names := docNames{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			if pkg == "main" {
				continue
			}
			if names[pkg] == nil {
				names[pkg] = map[string]bool{}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[pkg][d.Name.Name] = true
					if d.Recv != nil {
						names[pkg][recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[pkg][n.Name] = true
							}
						case *ast.TypeSpec:
							names[pkg][s.Name.Name] = true
							for _, m := range typeMembers(s.Type) {
								names[pkg][s.Name.Name+"."+m] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// recvName returns the name of a method receiver's type: T for T, *T,
// T[K] and *T[K].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// typeMembers returns the fields of a struct type, an embedded field under
// its type's name, and the methods of an interface type.
func typeMembers(e ast.Expr) []string {
	var list *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if f.Names == nil {
			out = append(out, recvName(f.Type))
		}
	}
	return out
}

// benchMetrics returns the metric names BENCHMARK.json declares.
func benchMetrics(t *testing.T, root string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return metrics
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// pkg.Name or pkg.Type.Member not inside a path or a longer selector,
	// with an optional trailing * standing for a prefix.
	qualName = regexp.MustCompile(`(?:^|[^\w./*-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)(\*?)`)
)

// fileExts are the suffixes that make pkg.ext a file name, not a Go name.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "spec": true, "golden": true, "sh": true, "yml": true, "txt": true}

// resolves reports whether pkg declares name, a Name or a Type.Member,
// or one that name prefixes when wild.
func (n docNames) resolves(pkg, name string, wild bool) bool {
	if !wild {
		return n[pkg][name]
	}
	for decl := range n[pkg] {
		if strings.HasPrefix(decl, name) {
			return true
		}
	}
	return false
}

// staleDocNames returns every backticked pkg.Name or pkg.Type.Member in
// doc, outside fenced code blocks, whose package is one of the module's
// and declares no such name, or no such type with such a method or field,
// as "pkg.Name (line n)". Benchmark metric names, which share the shape,
// and file names are skipped.
func staleDocNames(names docNames, metrics map[string]bool, doc string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			line = "\n"
		} else if fenced {
			line = "\n"
		}
		prose.WriteString(line)
	}
	text := prose.String()
	var stale []string
	for _, span := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		for _, m := range qualName.FindAllStringSubmatch(text[span[2]:span[3]], -1) {
			pkg, name := m[1], m[2]
			if names[pkg] == nil || fileExts[name[strings.LastIndex(name, ".")+1:]] || metrics[pkg+"."+name] || names.resolves(pkg, name, m[3] == "*") {
				continue
			}
			line := 1 + strings.Count(text[:span[0]], "\n")
			stale = append(stale, fmt.Sprintf("%s.%s%s (line %d)", pkg, name, m[3], line))
		}
	}
	return stale
}

// TestDocNamesResolve fails when DESIGN.md or README.md names, in a code
// span, a pkg.Name or pkg.Type.Member of one of this module's packages
// that no declaration matches: the doc outlived a rename or a deletion.
// Unqualified names (the -bench names, for one) are out of its scope.
func TestDocNamesResolve(t *testing.T) {
	root := moduleRoot(t)
	names, metrics := loadDocNames(t, root), benchMetrics(t, root)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleDocNames(names, metrics, string(b)) {
			t.Errorf("%s names %s, which no declaration matches", doc, s)
		}
	}
}

// TestDocNamesCatchStale pins what the scan resolves and what it flags, so
// TestDocNamesResolve cannot pass by matching nothing.
func TestDocNamesCatchStale(t *testing.T) {
	root := moduleRoot(t)
	names, metrics := loadDocNames(t, root), benchMetrics(t, root)
	doc := "Live: `core.Config`, `lzf.Decompress(dst, src, n)`, `flash.Array.Horizons`,\n" +
		"`obs.Counters.RefCache*`, `flash.WriteImage`, `flash.reads`, `lzf.go`, `internal/lzf/lzf.go`.\n" +
		"```\ncore.Gone()\n```\n" +
		"Stale: `core.RefCacheSlots`, `lzf.Nothing*`, `x := delta.Gone(p)`, `flash.Array.ChargeQuiet`, `obs.Counters.Gone*`.\n"
	got := staleDocNames(names, metrics, doc)
	want := []string{
		"core.RefCacheSlots (line 6)",
		"lzf.Nothing* (line 6)",
		"delta.Gone (line 6)",
		"flash.Array.ChargeQuiet (line 6)",
		"obs.Counters.Gone* (line 6)",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("stale names %q, want %q", got, want)
	}
}
