package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fakeModule is the module path used by the inline test packages.
const fakeModule = "example.com/m"

// chainImporter resolves the test's fake packages first and falls back to
// the stdlib source importer for everything else.
type chainImporter struct {
	fakes map[string]*types.Package
	std   types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.fakes[path]; ok {
		return p, nil
	}
	return c.std.ImportFrom(path, "", 0)
}

// srcPkg is one inline package: import path plus source text.
type srcPkg struct {
	path string
	src  string
}

// linkSrc type-checks the packages in order (dependencies first),
// extracts summaries from each, and links them into a Program.
func linkSrc(t *testing.T, pkgs []srcPkg) *Program {
	t.Helper()
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		t.Fatal("source importer does not support ImportFrom")
	}
	imp := &chainImporter{fakes: map[string]*types.Package{}, std: std}

	var sums []FuncSummary
	for _, p := range pkgs {
		f, err := parser.ParseFile(fset, p.path+"/src.go", p.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", p.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		imp.fakes[p.path] = tpkg
		sums = append(sums, Extract(&Source{
			ImportPath: p.path,
			ModulePath: fakeModule,
			Fset:       fset,
			Files:      []*ast.File{f},
			Pkg:        tpkg,
			Info:       info,
		})...)
	}
	return Link(sums)
}

// vclockSrc is a minimal stand-in for the real virtual-clock package; the
// sink detector keys on the "/internal/vclock" path suffix.
var vclockSrc = srcPkg{
	path: fakeModule + "/internal/vclock",
	src: `package vclock
type Time int64
const Second Time = 1e9
`,
}

func TestLockCycleAcrossCalls(t *testing.T) {
	prog := linkSrc(t, []srcPkg{{
		path: fakeModule + "/pair",
		src: `package pair

import "sync"

type Pair struct {
	a, b sync.Mutex
}

func (p *Pair) AB() { p.a.Lock(); defer p.a.Unlock(); p.lockB() }
func (p *Pair) lockB() { p.b.Lock(); p.b.Unlock() }
func (p *Pair) BA() { p.b.Lock(); defer p.b.Unlock(); p.lockA() }
func (p *Pair) lockA() { p.a.Lock(); p.a.Unlock() }
`,
	}})
	cycles := prog.LockCycles()
	if len(cycles) != 1 {
		t.Fatalf("got %d lock cycles, want 1: %+v", len(cycles), cycles)
	}
	keys := strings.Join(cycles[0].Keys, " ")
	if !strings.Contains(keys, "Pair.a") || !strings.Contains(keys, "Pair.b") {
		t.Errorf("cycle keys %q missing Pair.a/Pair.b", keys)
	}
}

func TestBlockingThroughCallee(t *testing.T) {
	prog := linkSrc(t, []srcPkg{{
		path: fakeModule + "/q",
		src: `package q

import "sync"

type Q struct {
	mu sync.Mutex
	ch chan int
}

func (q *Q) NotifyUnderLock() { q.mu.Lock(); q.send(); q.mu.Unlock() }
func (q *Q) send() { q.ch <- 1 }
func (q *Q) SpawnIsFine() { q.mu.Lock(); go q.send(); q.mu.Unlock() }
`,
	}})
	var underLock []BlockReport
	for _, r := range prog.BlockingUnderLock() {
		underLock = append(underLock, r)
	}
	if len(underLock) != 1 {
		t.Fatalf("got %d blocking-under-lock reports, want 1 (spawn must not count): %+v", len(underLock), underLock)
	}
	r := underLock[0]
	if r.Direct || len(r.Via) == 0 || !strings.HasSuffix(r.Via[0], "send") {
		t.Errorf("report should be indirect via send, got %+v", r)
	}
	if r.Kind != BlockSend {
		t.Errorf("kind = %v, want %v", r.Kind, BlockSend)
	}
}

func TestParamLockSubstitution(t *testing.T) {
	prog := linkSrc(t, []srcPkg{{
		path: fakeModule + "/g",
		src: `package g

import "sync"

type Guard struct {
	mu, res sync.Mutex
}

func acquireVia(l sync.Locker, g *Guard) { l.Lock(); g.res.Lock(); g.res.Unlock(); l.Unlock() }
func (g *Guard) Front() { acquireVia(&g.mu, g) }
func (g *Guard) Back() { g.res.Lock(); g.mu.Lock(); g.mu.Unlock(); g.res.Unlock() }
`,
	}})
	var haveMuRes bool
	for _, e := range prog.LockGraph() {
		if strings.Contains(e.From, "Guard.mu") && strings.Contains(e.To, "Guard.res") {
			haveMuRes = true
		}
	}
	if !haveMuRes {
		t.Error("parameter lock was not substituted into a mu→res edge")
	}
	if len(prog.LockCycles()) != 1 {
		t.Errorf("got %d cycles, want 1 (mu→res via param, res→mu direct)", len(prog.LockCycles()))
	}
}

func TestTaintThroughFieldAndTuplePrecision(t *testing.T) {
	prog := linkSrc(t, []srcPkg{vclockSrc, {
		path: fakeModule + "/meter",
		src: `package meter

import (
	"time"

	"example.com/m/internal/vclock"
)

type Meter struct {
	stampNS int64
}

func (m *Meter) Stamp() { m.stampNS = time.Now().UnixNano() }
func (m *Meter) Virtual() vclock.Time { return vclock.Time(m.stampNS) }

func timed(at vclock.Time) (vclock.Time, time.Duration) {
	start := time.Now()
	return at + vclock.Second, time.Since(start)
}

func Sibling(at vclock.Time) vclock.Time {
	v, _ := timed(at)
	return vclock.Time(int64(v))
}
`,
	}})
	sinks := prog.TaintedSinks()
	if len(sinks) != 1 {
		t.Fatalf("got %d tainted sinks, want exactly the field-mediated one: %+v", len(sinks), sinks)
	}
	s := sinks[0]
	if !strings.HasSuffix(s.Func, "Virtual") {
		t.Errorf("tainted sink in %s, want Virtual (tuple sibling must stay clean)", s.Func)
	}
	if !strings.HasPrefix(s.Source.Source, "time.Now") {
		t.Errorf("source = %q, want time.Now", s.Source.Source)
	}
}

func TestAtomicMixAcrossFunctions(t *testing.T) {
	prog := linkSrc(t, []srcPkg{{
		path: fakeModule + "/ctr",
		src: `package ctr

import "sync/atomic"

type Counter struct {
	hits int64
	cold int64
}

func (c *Counter) Add() { atomic.AddInt64(&c.hits, 1) }
func (c *Counter) Snapshot() int64 { return c.hits }
func (c *Counter) Cold() int64 { c.cold++; return c.cold }
`,
	}})
	mixes := prog.AtomicMix()
	if len(mixes) != 1 {
		t.Fatalf("got %d atomic-mix reports, want 1: %+v", len(mixes), mixes)
	}
	if !strings.Contains(mixes[0].Field, "Counter.hits") {
		t.Errorf("mixed field = %q, want Counter.hits", mixes[0].Field)
	}
}

func TestInterfaceResolutionNeedsFullMethodSet(t *testing.T) {
	prog := linkSrc(t, []srcPkg{{
		path: fakeModule + "/res",
		src: `package res

import "sync"

// closer shares Close() error with stdlib interfaces like net.Listener;
// widget implements only closer, not the wider twoFace.
type closer interface {
	Close() error
}

type twoFace interface {
	Close() error
	Other()
}

type widget struct {
	mu sync.Mutex
	ch chan int
}

func (w *widget) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ch <- 0
	return nil
}

func ViaCloser(c closer) { _ = c.Close() }
func ViaTwoFace(f twoFace) { _ = f.Close() }
`,
	}})
	find := func(fn string) *CallSite {
		f := prog.Func(fakeModule + "/res." + fn)
		if f == nil || len(f.Calls) == 0 {
			t.Fatalf("no call site recorded in %s", fn)
		}
		return &f.Calls[0]
	}
	if got := prog.resolve(find("ViaCloser")); len(got) != 1 {
		t.Errorf("closer.Close should resolve to widget, got %v", got)
	}
	if got := prog.resolve(find("ViaTwoFace")); len(got) != 0 {
		t.Errorf("twoFace.Close must not resolve to widget (missing Other), got %v", got)
	}
}
