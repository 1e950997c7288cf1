// Command almalint runs Almanac's domain-aware static analyzer over the
// module: wall-clock bans in simulation packages, unseeded randomness,
// firmware-layer boundaries, dropped errors, map-ordering determinism
// hazards, and the whole-program rules (lockorder, walltaint, atomicmix)
// computed over the linked flow graph. See internal/lint and DESIGN.md
// ("Static analysis & invariants").
//
// Usage:
//
//	almalint [-rules id,...] [-sarif file] [-list] [./... | dir ...]
//
// With no argument or ./... the whole module is analyzed; directory
// arguments (relative to the module root) analyze, and link, just those
// packages. Every run does the full analysis: there is no cache, so a
// rebuilt almalint never reports a stale verdict.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"almanac/internal/lint"
)

func main() {
	ruleList := flag.String("rules", "", "comma-separated rule IDs to run (default: all)")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	list := flag.Bool("list", false, "list rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: almalint [-rules id,id,...] [-sarif file] [-list] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	rules := lint.Rules
	if *list {
		for _, r := range rules {
			fmt.Printf("%-12s %s\n", r.ID, r.Doc)
		}
		return
	}
	if *ruleList != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(*ruleList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		rules = nil
		for _, r := range lint.Rules {
			if want[r.ID] {
				rules = append(rules, r)
				delete(want, r.ID)
			}
		}
		for id := range want {
			fatalf("unknown rule %q (use -list)", id)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	var dirs []string
	if args := flag.Args(); !(len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		for _, arg := range args {
			dirs = append(dirs, strings.TrimSuffix(arg, "/"))
		}
	}
	findings, err := lint.Analyze(root, dirs, rules)
	if err != nil {
		fatalf("%v", err)
	}

	if *sarifOut != "" {
		data, err := lint.ToSARIF(findings, rules, root)
		if err != nil {
			fatalf("sarif: %v", err)
		}
		if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fatalf("sarif: %v", err)
		}
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "almalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("almalint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "almalint: "+format+"\n", args...)
	os.Exit(2)
}
