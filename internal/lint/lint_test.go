package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the module under analysis: this repository.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// corpusDirs returns the golden-corpus package directories by name.
func corpusDirs(t *testing.T) map[string]string {
	t.Helper()
	corpus := filepath.Join(moduleRoot(t), "internal", "lint", "testdata")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join(corpus, e.Name())
		}
	}
	return dirs
}

// corpusRuns memoizes corpusFindings: each directory is analyzed once per
// test binary however many tests read the result.
var corpusRuns = map[string][]Finding{}

// corpusFindings runs the whole rule table over one corpus directory.
func corpusFindings(t *testing.T, dir string) []Finding {
	t.Helper()
	if fs, ok := corpusRuns[dir]; ok {
		return fs
	}
	fs, err := Analyze(moduleRoot(t), []string{dir}, Rules)
	if err != nil {
		t.Fatalf("analyzing corpus package: %v", err)
	}
	corpusRuns[dir] = fs
	return fs
}

// wantMarkers scans a corpus package directory for "// want <rule>" line
// markers and returns the expected rule@line set per file.
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, rule := range strings.Fields(text[idx+len("// want "):]) {
				want[fmt.Sprintf("%s:%d:%s", path, line, rule)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return want
}

// TestGoldenCorpus runs the whole rule table over every testdata package
// and compares findings against the // want markers.
func TestGoldenCorpus(t *testing.T) {
	for name, dir := range corpusDirs(t) {
		t.Run(name, func(t *testing.T) {
			findings := corpusFindings(t, dir)
			if len(findings) == 0 {
				t.Fatalf("corpus package %s produced no findings", name)
			}
			got := map[string]bool{}
			for _, f := range findings {
				got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)] = true
			}
			want := wantMarkers(t, dir)
			for key := range want {
				if !got[key] {
					t.Errorf("missing expected finding %s", key)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected finding %s", key)
				}
			}
		})
	}
}

// TestEveryRuleEarnsItsKeep is ROADMAP's audit criterion, executable: a
// rule stays in the table only while its corpus directory holds a case no
// other rule trips — a "// want <id>" line on which, with the whole table
// running, that rule alone reports. (The other way to earn a row, a bug
// the rule caught in this repository, is DESIGN §6's evidence column.) A
// rule that fails here is deleted, not exempted.
func TestEveryRuleEarnsItsKeep(t *testing.T) {
	dirs := corpusDirs(t)
	for _, r := range Rules {
		dir, ok := dirs[r.ID]
		if !ok {
			t.Errorf("rule %s has no corpus directory internal/lint/testdata/%s", r.ID, r.ID)
			continue
		}
		reporters := map[string]map[string]bool{} // file:line → rules reporting there
		for _, f := range corpusFindings(t, dir) {
			at := fmt.Sprintf("%s:%d", f.File, f.Line)
			if reporters[at] == nil {
				reporters[at] = map[string]bool{}
			}
			reporters[at][f.Rule] = true
		}
		want := wantMarkers(t, dir)
		alone := false
		for at, rules := range reporters {
			if len(rules) == 1 && rules[r.ID] && want[at+":"+r.ID] {
				alone = true
			}
		}
		if !alone {
			t.Errorf("rule %s: no // want %s line in its corpus directory is reported by it alone", r.ID, r.ID)
		}
	}
}

// TestRepoIsClean is the self-check: the whole rule table over the whole
// module must report nothing. Every legitimate exception carries its
// reasoned allow annotation, and everything else has been fixed.
func TestRepoIsClean(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 15 {
		t.Fatalf("suspiciously few packages found: %d", len(dirs))
	}
	findings, err := Analyze(root, nil, Rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestAllowComment pins the suppression mechanics: a directive that
// stands alone covers its own line and the one below, a directive that
// trails code covers its own line only, and both only for the named rules.
func TestAllowComment(t *testing.T) {
	const src = `package p

func f() {
	a() //almalint:allow wallclock reason: trailing
	b()
	//almalint:allow wallclock, seededrand reason: standalone
	c()
	d()
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set := allowSet{}
	set.collect(&Package{Fset: fset, Files: []*ast.File{file}})
	for _, c := range []struct {
		rule string
		line int
		want bool
		why  string
	}{
		{"wallclock", 4, true, "same-line allow not honored"},
		{"wallclock", 5, false, "trailing allow leaked onto the next line"},
		{"wallclock", 7, true, "line-above allow not honored"},
		{"seededrand", 7, true, "second listed rule not honored"},
		{"layering", 7, false, "allow leaked to a different rule"},
		{"wallclock", 8, false, "allow leaked two lines down"},
	} {
		if got := set.allowed(c.rule, "f.go", c.line); got != c.want {
			t.Errorf("allowed(%s, line %d) = %v: %s", c.rule, c.line, got, c.why)
		}
	}
}
