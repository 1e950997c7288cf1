package flow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Source is the view of one type-checked package the extractor consumes.
// It mirrors lint.Package without importing it (package lint imports flow
// for the deep rules, so the dependency must point this way).
type Source struct {
	ImportPath string
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

func (s *Source) inModule(p *types.Package) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	return path == s.ModulePath || strings.HasPrefix(path, s.ModulePath+"/")
}

// Extract summarizes every function, method, and function literal of the
// package. Summaries are ordered by position, so identical sources yield
// identical summary lists.
func Extract(src *Source) []FuncSummary {
	var out []FuncSummary
	for _, file := range src.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := src.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ex := newExtractor(src, funcKeyOf(fn), displayName(fn), fd, fn)
			out = append(out, ex.run(fd.Body)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// funcKeyOf builds the canonical symbol key for a declared function.
func funcKeyOf(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fn.Pkg().Path() + "." + recvString(sig.Recv().Type()) + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func displayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return recvString(sig.Recv().Type()) + "." + fn.Name()
	}
	return fn.Name()
}

// recvString renders a receiver type as "(T)" or "(*T)".
func recvString(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return "(*" + n.Obj().Name() + ")"
		}
	}
	if n, ok := t.(*types.Named); ok {
		return "(" + n.Obj().Name() + ")"
	}
	return "(?)"
}

// sigString renders a receiver-less canonical signature for interface
// call matching, with full package paths so the match is unambiguous.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString("(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	b.WriteString(")")
	return b.String()
}

// assignment is one recorded taint-relevant assignment lhs ← rhs. ret is
// the tuple result position when rhs is a multi-value call (so only that
// result's taint reaches the variable), -1 otherwise.
type assignment struct {
	obj types.Object // local variable assigned, nil for field stores
	rhs ast.Expr
	ret int
}

// extractor builds one function's summary (plus nested literals').
type extractor struct {
	src *Source
	sum *FuncSummary

	params map[types.Object]int // parameter (incl. receiver at -1 offset) → index
	sig    *types.Signature

	assigns  []assignment
	locals   map[types.Object][]Dep
	callIdx  map[*ast.CallExpr]int
	retExprs []ast.Expr
	retPos   []int      // parallel to retExprs: result position, -1 = tuple-forwarding return
	sinkExpr []ast.Expr // parallel to sum.Sinks
	argExpr  map[int][]ast.Expr
	storeRhs []ast.Expr // parallel to sum.Stores
	storeRet []int      // parallel to sum.Stores: tuple position, -1 if n/a

	atomicArgs map[ast.Expr]bool // selector args consumed by sync/atomic calls

	nested []FuncSummary
	litSeq int
}

func newExtractor(src *Source, key, name string, fd *ast.FuncDecl, fn *types.Func) *extractor {
	sum := &FuncSummary{
		Key:  key,
		Pkg:  src.ImportPath,
		Name: name,
		Pos:  posOf(src, fd.Name),
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		sum.Method = fn.Name()
		sum.Sig = sigString(sig)
	}
	ex := &extractor{src: src, sum: sum, sig: sig}
	ex.init()
	if sig != nil {
		i := 0
		if r := sig.Recv(); r != nil {
			ex.params[r] = i
			i++
		}
		for j := 0; j < sig.Params().Len(); j++ {
			ex.params[sig.Params().At(j)] = i
			i++
		}
	}
	return ex
}

// numResults is the function's result count (0 when the signature is
// unknown, which also disables positional return tracking).
func (ex *extractor) numResults() int {
	if ex.sig == nil {
		return 0
	}
	return ex.sig.Results().Len()
}

func (ex *extractor) init() {
	ex.params = map[types.Object]int{}
	ex.locals = map[types.Object][]Dep{}
	ex.callIdx = map[*ast.CallExpr]int{}
	ex.argExpr = map[int][]ast.Expr{}
	ex.atomicArgs = map[ast.Expr]bool{}
}

func posOf(src *Source, n ast.Node) Pos {
	p := src.Fset.Position(n.Pos())
	return Pos{File: p.Filename, Line: p.Line, Col: p.Column}
}

// run walks the body, resolves local taint, and returns the function's
// summary followed by any nested literal summaries.
func (ex *extractor) run(body *ast.BlockStmt) []FuncSummary {
	ex.walkStmts(body.List, newHeld())
	ex.resolveTaint()
	out := []FuncSummary{*ex.sum}
	out = append(out, ex.nested...)
	return out
}

// ---- lock-held statement walk ---------------------------------------------

// held tracks the ordered set of lock keys lexically held.
type held struct{ keys []string }

func newHeld() *held { return &held{} }

func (h *held) copyHeld() *held {
	c := &held{keys: make([]string, len(h.keys))}
	copy(c.keys, h.keys)
	return c
}

func (h *held) push(k string) { h.keys = append(h.keys, k) }

func (h *held) drop(k string) {
	for i := len(h.keys) - 1; i >= 0; i-- {
		if h.keys[i] == k {
			h.keys = append(h.keys[:i], h.keys[i+1:]...)
			return
		}
	}
}

func (h *held) snapshot() []string {
	if len(h.keys) == 0 {
		return nil
	}
	out := make([]string, len(h.keys))
	copy(out, h.keys)
	return out
}

// walkStmts walks one statement list in order, maintaining the held-lock
// set. Nested statement lists get a copy: a conditional unlock-and-return
// inside a branch must not clear the lock for the fall-through path.
func (ex *extractor) walkStmts(list []ast.Stmt, h *held) {
	for i := 0; i < len(list); i++ {
		s := list[i]
		if key, ok := ex.lockStmt(s, "Lock", "RLock"); ok {
			ex.sum.Locks = append(ex.sum.Locks, LockSite{
				Pos: posOf(ex.src, s), Key: key, Held: h.snapshot(),
			})
			h.push(key)
			continue
		}
		if key, ok := ex.lockStmt(s, "Unlock", "RUnlock"); ok {
			h.drop(key)
			continue
		}
		if d, ok := s.(*ast.DeferStmt); ok {
			if _, ok := ex.lockCallExpr(d.Call, "Unlock", "RUnlock"); ok {
				// The lock stays held for the rest of the function; nothing
				// to record, the held set simply keeps the key.
				continue
			}
		}
		ex.walkStmt(s, h)
	}
}

// lockStmt matches `recv.Lock()`-style expression statements.
func (ex *extractor) lockStmt(s ast.Stmt, names ...string) (string, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	return ex.lockCallExpr(call, names...)
}

// lockCallExpr matches a niladic sync mutex/locker method call and
// returns the canonical lock key.
func (ex *extractor) lockCallExpr(call *ast.CallExpr, names ...string) (string, bool) {
	if len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	fn, ok := ex.src.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	return ex.lockKey(sel.X), true
}

// lockKey canonicalizes a lock receiver expression. Receivers and
// parameters of named module types key by type ("T:pkg.Type.field"), so
// the same lock is recognized across every method of the type; bare
// mutex/locker parameters become substitutable placeholders; everything
// else falls back to a function-local printed form.
func (ex *extractor) lockKey(e ast.Expr) string {
	e = unparen(e)
	var path []string
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ex.exprLockKey(e)
			}
			e = x.X
		case *ast.SelectorExpr:
			path = append([]string{x.Sel.Name}, path...)
			e = x.X
		case *ast.Ident:
			obj := ex.src.Info.Uses[x]
			if obj == nil {
				obj = ex.src.Info.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return ex.exprLockKey(e)
			}
			if named := namedOf(v.Type()); named != nil && ex.src.inModule(named.Obj().Pkg()) {
				key := "T:" + named.Obj().Pkg().Path() + "." + named.Obj().Name()
				if len(path) > 0 {
					key += "." + strings.Join(path, ".")
				}
				return key
			}
			if i, ok := ex.params[obj]; ok && len(path) == 0 {
				return ParamLockKey(i)
			}
			if v.Parent() == ex.src.Pkg.Scope() {
				key := "G:" + ex.src.ImportPath + "." + v.Name()
				if len(path) > 0 {
					key += "." + strings.Join(path, ".")
				}
				return key
			}
			return ex.exprLockKey(x)
		default:
			return ex.exprLockKey(e)
		}
	}
}

func (ex *extractor) exprLockKey(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, ex.src.Fset, e)
	return "L:" + ex.sum.Key + ":" + buf.String()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// walkStmt dispatches one non-lock statement.
func (ex *extractor) walkStmt(s ast.Stmt, h *held) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ex.walkStmts(s.List, h.copyHeld())
	case *ast.IfStmt:
		if s.Init != nil {
			ex.walkStmt(s.Init, h)
		}
		ex.scanExpr(s.Cond, h, false)
		ex.walkStmts(s.Body.List, h.copyHeld())
		if s.Else != nil {
			ex.walkStmt(s.Else, h.copyHeld())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ex.walkStmt(s.Init, h)
		}
		if s.Cond != nil {
			ex.scanExpr(s.Cond, h, false)
		}
		if s.Post != nil {
			ex.walkStmt(s.Post, h)
		}
		ex.walkStmts(s.Body.List, h.copyHeld())
	case *ast.RangeStmt:
		if t := ex.src.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
					Pos: posOf(ex.src, s), Kind: BlockRange, Held: h.snapshot(),
				})
			}
		}
		ex.scanExpr(s.X, h, false)
		ex.recordAssignTargets(s.Key, s.Value, nil)
		ex.walkStmts(s.Body.List, h.copyHeld())
	case *ast.SwitchStmt:
		if s.Init != nil {
			ex.walkStmt(s.Init, h)
		}
		if s.Tag != nil {
			ex.scanExpr(s.Tag, h, false)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				ex.scanExpr(e, h, false)
			}
			ex.walkStmts(cc.Body, h.copyHeld())
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ex.walkStmt(s.Init, h)
		}
		ex.walkStmt(s.Assign, h)
		for _, c := range s.Body.List {
			ex.walkStmts(c.(*ast.CaseClause).Body, h.copyHeld())
		}
	case *ast.SelectStmt:
		ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
			Pos: posOf(ex.src, s), Kind: BlockSelect, Held: h.snapshot(),
		})
		// The select finding covers its comm clauses; the bodies still
		// run on this goroutine and are walked normally.
		for _, c := range s.Body.List {
			ex.walkStmts(c.(*ast.CommClause).Body, h.copyHeld())
		}
	case *ast.SendStmt:
		ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
			Pos: posOf(ex.src, s), Kind: BlockSend, Held: h.snapshot(),
		})
		ex.scanExpr(s.Chan, h, false)
		ex.scanExpr(s.Value, h, false)
	case *ast.GoStmt:
		ex.scanCall(s.Call, h, true)
	case *ast.DeferStmt:
		// Deferred work runs at return with an unknown held set; record
		// the edge for the call graph without attributing current locks.
		ex.scanCall(s.Call, newHeld(), false)
	case *ast.ExprStmt:
		ex.scanExpr(s.X, h, false)
	case *ast.AssignStmt:
		ex.walkAssign(s, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					ex.scanExpr(v, h, false)
				}
				if len(vs.Names) > 1 && len(vs.Values) == 1 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					ex.recordTupleAssign(lhs, vs.Values[0])
				} else {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							ex.recordLocalAssign(name, vs.Values[i], -1)
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		n := ex.numResults()
		for i, r := range s.Results {
			ex.scanExpr(r, h, false)
			ex.retExprs = append(ex.retExprs, r)
			if len(s.Results) == n {
				ex.retPos = append(ex.retPos, i)
			} else {
				// `return f()` forwarding a tuple: positions resolved at
				// taint time from the call's own result deps.
				ex.retPos = append(ex.retPos, -1)
			}
		}
	case *ast.IncDecStmt:
		ex.scanExpr(s.X, h, true)
	case *ast.LabeledStmt:
		ex.walkStmt(s.Stmt, h)
	}
}

func (ex *extractor) walkAssign(s *ast.AssignStmt, h *held) {
	for _, r := range s.Rhs {
		ex.scanExpr(r, h, false)
	}
	for _, l := range s.Lhs {
		// Scan index/selector bases on the lhs (reads), and mark the
		// final selector as a write for atomicmix.
		ex.scanExpr(l, h, true)
	}
	// Taint bookkeeping: pair lhs with rhs (1:1 or tuple-from-one-call).
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			ex.recordAssign(s.Lhs[i], s.Rhs[i], -1)
		}
	} else if len(s.Rhs) == 1 {
		ex.recordTupleAssign(s.Lhs, s.Rhs[0])
	}
}

// recordTupleAssign pairs a multi-value rhs with its targets. Call results
// are tracked positionally; for the comma-ok forms (map index, type
// assertion, channel receive) only the value target carries taint — the
// bool never does.
func (ex *extractor) recordTupleAssign(lhs []ast.Expr, rhs ast.Expr) {
	switch unparen(rhs).(type) {
	case *ast.CallExpr:
		for i, l := range lhs {
			ex.recordAssign(l, rhs, i)
		}
	case *ast.TypeAssertExpr, *ast.IndexExpr, *ast.UnaryExpr:
		ex.recordAssign(lhs[0], rhs, -1)
	default:
		for _, l := range lhs {
			ex.recordAssign(l, rhs, -1)
		}
	}
}

func (ex *extractor) recordAssignTargets(key, value ast.Expr, rhs ast.Expr) {
	// Range variables: no taint modeling of element flows (rhs nil keeps
	// the locals untainted rather than guessing).
	_ = key
	_ = value
	_ = rhs
}

func (ex *extractor) recordAssign(lhs, rhs ast.Expr, ret int) {
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		ex.recordLocalAssign(l, rhs, ret)
	case *ast.SelectorExpr:
		if key, ok := ex.fieldKeyOf(l); ok {
			ex.sum.Stores = append(ex.sum.Stores, FieldStore{Field: key})
			ex.storeRhs = append(ex.storeRhs, rhs)
			ex.storeRet = append(ex.storeRet, ret)
		}
	}
}

func (ex *extractor) recordLocalAssign(id *ast.Ident, rhs ast.Expr, ret int) {
	if id.Name == "_" {
		return
	}
	obj := ex.src.Info.Defs[id]
	if obj == nil {
		obj = ex.src.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() == ex.src.Pkg.Scope() {
		// Assignment to a package-level variable is a store.
		ex.sum.Stores = append(ex.sum.Stores, FieldStore{Field: "G:" + ex.src.ImportPath + "." + v.Name()})
		ex.storeRhs = append(ex.storeRhs, rhs)
		ex.storeRet = append(ex.storeRet, ret)
		return
	}
	ex.assigns = append(ex.assigns, assignment{obj: obj, rhs: rhs, ret: ret})
}

// ---- expression scan -------------------------------------------------------

// scanExpr records call sites, blocking operations, and field accesses
// inside one expression. write marks the outermost expression as an
// assignment target.
func (ex *extractor) scanExpr(e ast.Expr, h *held, write bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.ParenExpr:
		ex.scanExpr(e.X, h, write)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
				Pos: posOf(ex.src, e), Kind: BlockRecv, Held: h.snapshot(),
			})
		}
		ex.scanExpr(e.X, h, false)
	case *ast.StarExpr:
		ex.scanExpr(e.X, h, false)
	case *ast.BinaryExpr:
		ex.scanExpr(e.X, h, false)
		ex.scanExpr(e.Y, h, false)
	case *ast.CallExpr:
		ex.scanCall(e, h, false)
	case *ast.SelectorExpr:
		ex.recordFieldAccess(e, write)
		ex.scanExpr(e.X, h, false)
	case *ast.Ident:
		ex.recordGlobalAccess(e, write)
	case *ast.IndexExpr:
		ex.scanExpr(e.X, h, false)
		ex.scanExpr(e.Index, h, false)
	case *ast.IndexListExpr:
		ex.scanExpr(e.X, h, false)
	case *ast.SliceExpr:
		ex.scanExpr(e.X, h, false)
		ex.scanExpr(e.Low, h, false)
		ex.scanExpr(e.High, h, false)
		ex.scanExpr(e.Max, h, false)
	case *ast.TypeAssertExpr:
		ex.scanExpr(e.X, h, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				ex.scanExpr(kv.Value, h, false)
				continue
			}
			ex.scanExpr(el, h, false)
		}
	case *ast.FuncLit:
		ex.extractLit(e, h, true, false)
	case *ast.KeyValueExpr:
		ex.scanExpr(e.Value, h, false)
	}
}

// extractLit summarizes a function literal and records the edge to it.
// escaped literals (stored, passed along) run on an unknown schedule, so
// the edge is marked Go — locks held here never extend into the literal.
func (ex *extractor) extractLit(lit *ast.FuncLit, h *held, escaped, spawned bool) string {
	ex.litSeq++
	key := fmt.Sprintf("%s$%d", ex.sum.Key, ex.litSeq)
	sub := &extractor{src: ex.src, sum: &FuncSummary{
		Key:  key,
		Pkg:  ex.src.ImportPath,
		Name: fmt.Sprintf("%s$%d", ex.sum.Name, ex.litSeq),
		Pos:  posOf(ex.src, lit),
	}}
	sub.init()
	if sig, ok := ex.src.Info.TypeOf(lit).(*types.Signature); ok {
		for j := 0; j < sig.Params().Len(); j++ {
			sub.params[sig.Params().At(j)] = j
		}
		sub.sig = sig
	}
	ex.nested = append(ex.nested, sub.run(lit.Body)...)
	ex.sum.Calls = append(ex.sum.Calls, CallSite{
		Pos:    posOf(ex.src, lit),
		Callee: key,
		Go:     escaped || spawned,
	})
	return key
}

// scanCall records one call expression: lock ops, blocking stdlib calls,
// atomic accesses, obs policy calls, spawn edges, and resolved/interface
// call-graph edges.
func (ex *extractor) scanCall(call *ast.CallExpr, h *held, spawned bool) {
	// Direct invocation or spawn of a literal.
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		ex.extractLit(lit, h, false, spawned)
		idx := len(ex.sum.Calls) - 1
		cs := &ex.sum.Calls[idx]
		cs.Go = spawned
		if !spawned {
			cs.Held = h.snapshot()
		}
		ex.callIdx[call] = idx
		ex.argExpr[idx] = call.Args
		for _, a := range call.Args {
			ex.scanExpr(a, h, false)
		}
		return
	}

	// Conversions: scan the operand and check the vclock sink.
	if tv, ok := ex.src.Info.Types[call.Fun]; ok && tv.IsType() {
		ex.checkConvSink(call)
		for _, a := range call.Args {
			ex.scanExpr(a, h, false)
		}
		return
	}

	fn := ex.calleeFunc(call)
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sync":
			switch fn.Name() {
			case "Lock", "RLock":
				// A lock call in expression position (defer/go handled
				// elsewhere); track it so the held set stays truthful.
				if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
					h.push(ex.lockKey(sel.X))
				}
				return
			case "Unlock", "RUnlock":
				if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
					h.drop(ex.lockKey(sel.X))
				}
				return
			case "Wait":
				ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
					Pos: posOf(ex.src, call), Kind: BlockWait, Held: h.snapshot(),
				})
			}
		case "time":
			if fn.Name() == "Sleep" {
				ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
					Pos: posOf(ex.src, call), Kind: BlockSleep, Held: h.snapshot(),
				})
			}
		case "sync/atomic":
			ex.recordAtomicCall(call, fn)
		}
		if isObsPath(fn.Pkg().Path()) {
			// Only the contended entry points matter under a held lock:
			// Observe/Record write the per-shard seqlock slots, Ops/Trace
			// spin reading them. Constructors and atomic setters
			// (NewRegistry, SetEnabled, Start, ...) are lock-free.
			switch fn.Name() {
			case "Observe", "Record", "Ops", "Trace":
				ex.sum.Blocking = append(ex.sum.Blocking, BlockSite{
					Pos: posOf(ex.src, call), Kind: BlockObsCall, Held: h.snapshot(),
				})
			}
			ex.checkObsSink(call, fn)
		}
	}

	ex.recordCallEdge(call, h, spawned)

	for _, a := range call.Args {
		ex.scanExpr(a, h, false)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		ex.scanExpr(sel.X, h, false)
	}
}

// calleeFunc resolves the *types.Func a call invokes, if static.
func (ex *extractor) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := ex.src.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := ex.src.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recordCallEdge adds a CallSite for module functions and interface
// methods. Dynamic calls through plain function values stay unresolved —
// literals get edges where they are created instead.
func (ex *extractor) recordCallEdge(call *ast.CallExpr, h *held, spawned bool) {
	fn := ex.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	cs := CallSite{
		Pos: posOf(ex.src, call),
		Go:  spawned,
	}
	if !spawned {
		cs.Held = h.snapshot()
	}
	// For method calls the receiver is parameter 0 of the callee summary,
	// so it leads the expression list ArgDeps/ArgLocks are built from.
	var iface *types.Interface
	exprs := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := ex.src.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			exprs = append(exprs, sel.X)
			if it, ok := s.Recv().Underlying().(*types.Interface); ok {
				iface = it
			}
		}
	}
	exprs = append(exprs, call.Args...)
	switch {
	case iface != nil:
		sig, _ := fn.Type().(*types.Signature)
		cs.Method = fn.Name()
		if sig != nil {
			cs.Sig = sigString(sig)
		}
		cs.Iface = ifaceMethodSet(iface)
	case ex.src.inModule(fn.Pkg()):
		cs.Callee = funcKeyOf(fn)
	default:
		return // stdlib: handled as source/blocking above, no graph edge
	}
	cs.ArgLocks = ex.argLocksOf(exprs)
	idx := len(ex.sum.Calls)
	ex.callIdx[call] = idx
	ex.argExpr[idx] = exprs
	ex.sum.Calls = append(ex.sum.Calls, cs)
}

// ifaceMethodSet renders an interface's complete method set as sorted
// "name|sig" entries for link-time candidate filtering.
func ifaceMethodSet(it *types.Interface) []string {
	it = it.Complete()
	out := make([]string, 0, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sig, _ := m.Type().(*types.Signature)
		if sig == nil {
			continue
		}
		out = append(out, m.Name()+"|"+sigString(sig))
	}
	sort.Strings(out)
	return out
}

// argLocksOf maps argument positions to canonical lock keys for arguments
// that carry a recognizable lock value.
func (ex *extractor) argLocksOf(exprs []ast.Expr) map[int]string {
	var out map[int]string
	for i, a := range exprs {
		t := ex.src.Info.TypeOf(a)
		if t == nil || !isLockType(t) {
			continue
		}
		if out == nil {
			out = map[int]string{}
		}
		out[i] = ex.lockKey(a)
	}
	return out
}

// isLockType reports sync.Mutex/RWMutex pointers and sync.Locker values.
func isLockType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

func isObsPath(path string) bool {
	return strings.HasSuffix(path, "/internal/obs")
}

// ---- atomic / plain field accesses ----------------------------------------

// atomicFuncs maps sync/atomic package functions to the index of their
// address argument.
var atomicFuncs = map[string]int{
	"LoadInt32": 0, "LoadInt64": 0, "LoadUint32": 0, "LoadUint64": 0,
	"LoadUintptr": 0, "LoadPointer": 0,
	"StoreInt32": 0, "StoreInt64": 0, "StoreUint32": 0, "StoreUint64": 0,
	"StoreUintptr": 0, "StorePointer": 0,
	"AddInt32": 0, "AddInt64": 0, "AddUint32": 0, "AddUint64": 0, "AddUintptr": 0,
	"SwapInt32": 0, "SwapInt64": 0, "SwapUint32": 0, "SwapUint64": 0,
	"SwapUintptr": 0, "SwapPointer": 0,
	"CompareAndSwapInt32": 0, "CompareAndSwapInt64": 0,
	"CompareAndSwapUint32": 0, "CompareAndSwapUint64": 0,
	"CompareAndSwapUintptr": 0, "CompareAndSwapPointer": 0,
}

func (ex *extractor) recordAtomicCall(call *ast.CallExpr, fn *types.Func) {
	argIdx, ok := atomicFuncs[fn.Name()]
	if !ok || argIdx >= len(call.Args) {
		return
	}
	addr, ok := unparen(call.Args[argIdx]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	target := unparen(addr.X)
	var key string
	switch t := target.(type) {
	case *ast.SelectorExpr:
		k, ok := ex.fieldKeyOf(t)
		if !ok {
			return
		}
		key = k
		ex.atomicArgs[t] = true
	case *ast.Ident:
		v, ok := ex.src.Info.Uses[t].(*types.Var)
		if !ok || v.Parent() != ex.src.Pkg.Scope() {
			return
		}
		key = "G:" + ex.src.ImportPath + "." + v.Name()
		ex.atomicArgs[t] = true
	default:
		return
	}
	ex.sum.Fields = append(ex.sum.Fields, FieldAccess{
		Pos: posOf(ex.src, call), Field: key, Mode: AccessAtomic, Op: fn.Name(),
	})
}

// recordFieldAccess records plain reads/writes of integer-kinded module
// struct fields — the accesses atomicmix compares against atomic ones.
func (ex *extractor) recordFieldAccess(sel *ast.SelectorExpr, write bool) {
	if ex.atomicArgs[sel] {
		return // the &x.f inside an atomic call is the atomic access itself
	}
	key, ok := ex.fieldKeyOf(sel)
	if !ok {
		return
	}
	if !ex.atomicCapable(ex.src.Info.TypeOf(sel)) {
		return
	}
	mode := AccessRead
	if write {
		mode = AccessWrite
	}
	ex.sum.Fields = append(ex.sum.Fields, FieldAccess{
		Pos: posOf(ex.src, sel.Sel), Field: key, Mode: mode,
	})
}

func (ex *extractor) recordGlobalAccess(id *ast.Ident, write bool) {
	if ex.atomicArgs[id] {
		return
	}
	v, ok := ex.src.Info.Uses[id].(*types.Var)
	if !ok || v.Parent() != ex.src.Pkg.Scope() {
		return
	}
	if !ex.atomicCapable(v.Type()) {
		return
	}
	mode := AccessRead
	if write {
		mode = AccessWrite
	}
	ex.sum.Fields = append(ex.sum.Fields, FieldAccess{
		Pos: posOf(ex.src, id), Field: "G:" + ex.src.ImportPath + "." + v.Name(), Mode: mode,
	})
}

// atomicCapable reports types sync/atomic functions can address.
func (ex *extractor) atomicCapable(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
		return true
	}
	return false
}

// fieldKeyOf canonicalizes a struct-field selector to
// "pkg/path.Type.field". Only fields of named module structs qualify.
func (ex *extractor) fieldKeyOf(sel *ast.SelectorExpr) (string, bool) {
	s, ok := ex.src.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || v.Pkg() == nil || !ex.src.inModule(v.Pkg()) {
		return "", false
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name(), true
}
