package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// internalPrefix is the import-path prefix of the module's internal
// packages; the scoped rules name packages relative to it.
const internalPrefix = "almanac/internal/"

// Rules is the rule table in its one, production configuration: eleven
// rows, each a package check or a check of the linked program. The rule
// IDs appear in //almalint:allow comments across the repository, so a row
// may change its check but not its ID.
var Rules = []Rule{
	{
		// All simulated latency must flow through internal/vclock's
		// virtual time; a single time.Now in a hot path silently couples
		// results to the host machine and destroys replay determinism
		// (EagleTree's and Amber's core trustworthiness requirement).
		// cmd/ and examples/ are out of scope: wall time is legitimate on
		// the host side of the firmware boundary.
		ID:  "wallclock",
		Doc: "time.Now/Since/Sleep and friends are forbidden in simulation packages; use internal/vclock virtual time",
		Package: bannedCalls(
			func(importPath string) bool { return simPackages[lastSegment(importPath)] || inTestdata(importPath) },
			[]string{"time"},
			func(name string) bool { return wallclockFuncs[name] },
			func(fn, in string) string {
				return fmt.Sprintf("wall-clock call time.%s in simulation package %s", fn, in)
			},
			"route time through internal/vclock; if wall time is genuinely required, annotate with //almalint:allow wallclock <reason>"),
	},
	{
		// The global source is seeded once per process (and randomly
		// since Go 1.20), so any call to rand.Intn and friends makes
		// harness runs and the array replay path non-reproducible. Every
		// consumer, module-wide, threads an explicit
		// rand.New(rand.NewSource(seed)).
		ID:  "seededrand",
		Doc: "global math/rand PRNG calls are forbidden; use an explicitly seeded rand.New(rand.NewSource(seed))",
		Package: bannedCalls(
			func(string) bool { return true },
			[]string{"math/rand", "math/rand/v2"},
			func(name string) bool { return !seededRandOK[name] },
			func(fn, _ string) string {
				return fmt.Sprintf("global PRNG call rand.%s is not reproducible", fn)
			},
			"use a local rng := rand.New(rand.NewSource(seed)) so runs are bit-reproducible"),
	},
	{
		ID:      "layering",
		Doc:     "raw flash ops only from ftl/core; core mutation entry points only from array/timekits/harness/fsim; volume mutation and lifecycle only from almaproto/harness",
		Package: checkLayering,
	},
	{
		ID:      "checkederr",
		Doc:     "calls returning an error must not be used as bare statements; handle it or assign to _ explicitly",
		Package: checkDroppedErrors,
	},
	{
		ID:      "maporder",
		Doc:     "map range that appends to a returned slice must sort the slice (map iteration order is random)",
		Package: checkMapOrder,
	},
	{
		// A fault schedule comes through fault.Parse — the plan text is
		// then serialisable, replayable from CI artifacts, and validated
		// in one place. fault.NewInjector is blessed everywhere:
		// consuming a plan is fine, conjuring one is not.
		ID:  "faultplan",
		Doc: "fault.Plan/fault.Rule literals only in internal/fault, internal/harness and tests; build plans with fault.Parse",
		Package: literalScope("fault", []string{"Plan", "Rule"},
			"build fault schedules with fault.Parse so they are serialisable and replayable; literals belong to internal/fault, internal/harness and tests"),
	},
	{
		// The same discipline for design-space specifications: the spec
		// text is embedded in SWEEP_N.json artifacts. Consuming a parsed
		// spec (sweep.Engine, Points, tables) is fine anywhere.
		ID:  "sweepspec",
		Doc: "sweep.Spec/sweep.Axis literals only in internal/sweep, internal/harness and tests; build specs with sweep.Parse",
		Package: literalScope("sweep", []string{"Spec", "Axis"},
			"build sweep specs with sweep.Parse so they are serialisable and CI-replayable; literals belong to internal/sweep, internal/harness and tests"),
	},
	{
		ID:      "allowreason",
		Doc:     "every //almalint:allow must list rule IDs and end with 'reason: <justification>'",
		Package: checkAllowReasons,
	},
	{
		ID:      "lockorder",
		Doc:     "whole-program lock discipline: no lock-order cycles, no blocking operations reachable while a mutex is held",
		Program: checkLockOrder,
	},
	{
		ID:      "walltaint",
		Doc:     "no wall-clock/host-randomness value may flow into a virtual-time sink (vclock conversions, obs virtual histograms), module-wide",
		Program: checkWallTaint,
	},
	{
		ID:      "atomicmix",
		Doc:     "a field accessed via sync/atomic anywhere must be accessed atomically everywhere, module-wide",
		Program: checkAtomicMix,
	},
}

// simPackages is wallclock's scope: every package that participates in
// the simulation or serves it concurrently. harness and almaproto are
// included — their few legitimate wall-clock uses (wall-time measurement,
// network deadlines) carry //almalint:allow wallclock annotations.
var simPackages = set(
	"flash", "vclock", "ftl", "core", "bloom", "delta", "array", "fsim",
	"trace", "apps", "ransom", "fault", "harness", "almaproto", "timekits",
	"lzf", "service", "sweep")

var wallclockFuncs = set("Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc")

// seededRandOK are the math/rand package-level functions that construct
// seeded sources rather than consult the global PRNG.
var seededRandOK = set("New", "NewSource", "NewZipf")

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// bannedCalls builds the check "no use of a banned package-level function
// of the packages in from, within the packages inScope selects". Methods
// are never banned: a time.Time or a *rand.Rand is an explicit value. msg
// renders the finding from the function's name and the offending
// package's.
func bannedCalls(inScope func(importPath string) bool, from []string, banned func(name string) bool,
	msg func(fn, in string) string, hint string) func(*Package) []Finding {
	return func(p *Package) []Finding {
		if !inScope(p.ImportPath) {
			return nil
		}
		var out []Finding
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !slices.Contains(from, fn.Pkg().Path()) {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if banned(fn.Name()) {
					out = append(out, finding(p, sel, msg(fn.Name(), p.Pkg.Name()), hint))
				}
				return true
			})
		}
		return out
	}
}

// literalScope builds the check "composite literals of internal/<pkg>'s
// named types are constructed only by the layers that legitimately author
// them": internal/<pkg> itself (the parser) and internal/harness.
// Everywhere else under internal/ the value must come through the
// package's Parse. Test files are exempt by construction (the loader
// analyzes only non-test files), and cmd/ sits outside the internal
// scope — host tooling reads the text form rather than building literals.
func literalScope(pkg string, typeNames []string, hint string) func(*Package) []Finding {
	return func(p *Package) []Finding {
		rel, internal := strings.CutPrefix(p.ImportPath, internalPrefix)
		if !internal || rel == pkg || rel == "harness" {
			return nil
		}
		var out []Finding
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				named, ok := p.Info.TypeOf(cl).(*types.Named)
				if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != internalPrefix+pkg {
					return true
				}
				if name := named.Obj().Name(); slices.Contains(typeNames, name) {
					out = append(out, finding(p, cl,
						fmt.Sprintf("%s.%s literal constructed in %s", pkg, name, p.ImportPath), hint))
				}
				return true
			})
		}
		return out
	}
}
