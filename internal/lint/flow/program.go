package flow

import (
	"sort"
	"strconv"
	"strings"
)

// Program is the linked whole-module view: every function summary joined
// into a call graph, with the interprocedural fixpoints (transitive lock
// acquisition, blocking reachability, taint propagation) computed once at
// construction so rule queries are cheap lookups.
type Program struct {
	funcs map[string]*FuncSummary
	keys  []string // sorted function keys

	// byMethod indexes methods by "name|signature" for interface-call
	// resolution: any module method matching both is a candidate target.
	byMethod map[string][]string

	acq    map[string]map[string]acqInfo
	blocks map[string]*blockFact

	lockEdges  map[string]LockEdge // "from|to" → first witness
	paramEdges map[string][]LockEdge

	taintFrom map[string]taintInfo // tainted node id → provenance

	// methodSets maps a normalized receiver ("pkg.T", pointer and value
	// merged) to the "name|sig" set of its declared methods, for
	// full-interface candidate filtering in resolve.
	methodSets map[string]map[string]bool
}

// acqInfo is the witness for "function may acquire lock": where, and
// through which callee (empty for a direct acquisition).
type acqInfo struct {
	Pos Pos
	Via string
}

// blockFact is the witness for "function may block".
type blockFact struct {
	Kind BlockKind
	Pos  Pos
	Via  []string // call chain from the function to the blocking site
}

// LockEdge is one lock-order edge: To was acquired while From was held.
type LockEdge struct {
	From string
	To   string
	Pos  Pos
	Func string
	// Via names the callee the acquisition happened through, "" if direct.
	Via string
}

// taintInfo records how a taint-graph node became tainted.
type taintInfo struct {
	Source Dep    // the originating DepSource
	From   string // predecessor node id, "" if directly from the source
}

// Link joins summaries into a Program and runs every fixpoint.
func Link(sums []FuncSummary) *Program {
	p := &Program{
		funcs:      map[string]*FuncSummary{},
		byMethod:   map[string][]string{},
		methodSets: map[string]map[string]bool{},
		acq:        map[string]map[string]acqInfo{},
		blocks:     map[string]*blockFact{},
		lockEdges:  map[string]LockEdge{},
		paramEdges: map[string][]LockEdge{},
		taintFrom:  map[string]taintInfo{},
	}
	for i := range sums {
		s := &sums[i]
		p.funcs[s.Key] = s
	}
	for k := range p.funcs {
		p.keys = append(p.keys, k)
	}
	sort.Strings(p.keys)
	for _, k := range p.keys {
		s := p.funcs[k]
		if s.Method != "" {
			mk := s.Method + "|" + s.Sig
			p.byMethod[mk] = append(p.byMethod[mk], k)
			if recv := recvOf(k); recv != "" {
				ms := p.methodSets[recv]
				if ms == nil {
					ms = map[string]bool{}
					p.methodSets[recv] = ms
				}
				ms[mk] = true
			}
		}
	}
	p.computeAcquires()
	p.computeBlocking()
	p.computeLockEdges()
	p.computeTaint()
	return p
}

// Func returns the summary for a canonical key, or nil.
func (p *Program) Func(key string) *FuncSummary { return p.funcs[key] }

// resolve returns the possible targets of a call site, sorted.
func (p *Program) resolve(cs *CallSite) []string {
	if cs.Callee != "" {
		if _, ok := p.funcs[cs.Callee]; ok {
			return []string{cs.Callee}
		}
		return nil
	}
	if cs.Method != "" {
		cands := p.byMethod[cs.Method+"|"+cs.Sig]
		if len(cs.Iface) == 0 {
			return cands
		}
		// Keep only receiver types whose declared method set covers the
		// whole interface: sharing one method name (Close() error on
		// net.Listener vs a module type) must not create an edge.
		// Promoted methods from embedded types are not credited to the
		// outer type here, which can drop a genuine target — an accepted
		// precision/recall trade for a linter.
		var out []string
		for _, k := range cands {
			ms := p.methodSets[recvOf(k)]
			ok := true
			for _, m := range cs.Iface {
				if !ms[m] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, k)
			}
		}
		return out
	}
	return nil
}

// recvOf extracts the normalized receiver from a method key:
// "pkg.(*T).M" and "pkg.T.M" both map to "pkg.T". Returns "" for
// non-method keys (no receiver segment).
func recvOf(key string) string {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return ""
	}
	recv := key[:i]
	recv = strings.Replace(recv, "(*", "", 1)
	recv = strings.Replace(recv, ")", "", 1)
	return recv
}

// substLock maps a callee lock key into the caller's frame: parameter
// placeholders become the caller's argument lock (possibly the caller's
// own placeholder, substituted one level further up), unknown parameters
// drop out, and concrete keys pass through.
func substLock(key string, argLocks map[int]string) string {
	if !strings.HasPrefix(key, "param:") {
		return key
	}
	var i int
	for _, c := range key[len("param:"):] {
		if c < '0' || c > '9' {
			return ""
		}
		i = i*10 + int(c-'0')
	}
	return argLocks[i] // "" when the caller passed no recognizable lock
}

func isParamLock(key string) bool { return strings.HasPrefix(key, "param:") }

// ---- transitive lock acquisition -------------------------------------------

func (p *Program) computeAcquires() {
	for _, k := range p.keys {
		m := map[string]acqInfo{}
		for _, ls := range p.funcs[k].Locks {
			if _, ok := m[ls.Key]; !ok {
				m[ls.Key] = acqInfo{Pos: ls.Pos}
			}
		}
		p.acq[k] = m
	}
	for round := 0; round < 100; round++ {
		changed := false
		for _, k := range p.keys {
			f := p.funcs[k]
			for ci := range f.Calls {
				cs := &f.Calls[ci]
				if cs.Go {
					// A spawned goroutine acquires its locks on its own
					// schedule; the spawner itself does not.
					continue
				}
				for _, g := range p.resolve(cs) {
					for _, gk := range sortedKeys(p.acq[g]) {
						k2 := substLock(gk, cs.ArgLocks)
						if k2 == "" {
							continue
						}
						if _, ok := p.acq[k][k2]; !ok {
							p.acq[k][k2] = acqInfo{Pos: cs.Pos, Via: g}
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

func sortedKeys(m map[string]acqInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- blocking reachability -------------------------------------------------

func (p *Program) computeBlocking() {
	for _, k := range p.keys {
		for _, b := range p.funcs[k].Blocking {
			if b.Kind.Blocking() {
				p.blocks[k] = &blockFact{Kind: b.Kind, Pos: b.Pos}
				break
			}
		}
	}
	for round := 0; round < 100; round++ {
		changed := false
		for _, k := range p.keys {
			if p.blocks[k] != nil {
				continue
			}
			f := p.funcs[k]
			for ci := range f.Calls {
				cs := &f.Calls[ci]
				if cs.Go {
					continue
				}
				for _, g := range p.resolve(cs) {
					if fg := p.blocks[g]; fg != nil {
						via := append([]string{g}, fg.Via...)
						p.blocks[k] = &blockFact{Kind: fg.Kind, Pos: fg.Pos, Via: via}
						changed = true
						break
					}
				}
				if p.blocks[k] != nil {
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}

// ---- lock-order graph ------------------------------------------------------

func (p *Program) addLockEdge(e LockEdge) {
	if e.From == e.To {
		// Same canonical key on both sides: with type-based keys this is
		// usually two *instances* of the same type, which establishes no
		// order violation by itself, so self-edges are dropped.
		return
	}
	if isParamLock(e.From) || isParamLock(e.To) {
		key := e.Func + "|" + e.From + "|" + e.To
		for _, have := range p.paramEdges[e.Func] {
			if have.Func+"|"+have.From+"|"+have.To == key {
				return
			}
		}
		p.paramEdges[e.Func] = append(p.paramEdges[e.Func], e)
		return
	}
	id := e.From + "|" + e.To
	if _, ok := p.lockEdges[id]; !ok {
		p.lockEdges[id] = e
	}
}

func (p *Program) computeLockEdges() {
	for _, k := range p.keys {
		f := p.funcs[k]
		for _, ls := range f.Locks {
			for _, h := range ls.Held {
				p.addLockEdge(LockEdge{From: h, To: ls.Key, Pos: ls.Pos, Func: k})
			}
		}
		for ci := range f.Calls {
			cs := &f.Calls[ci]
			if cs.Go || len(cs.Held) == 0 {
				continue
			}
			for _, g := range p.resolve(cs) {
				for _, gk := range sortedKeys(p.acq[g]) {
					k2 := substLock(gk, cs.ArgLocks)
					if k2 == "" {
						continue
					}
					for _, h := range cs.Held {
						p.addLockEdge(LockEdge{From: h, To: k2, Pos: cs.Pos, Func: k, Via: g})
					}
				}
			}
		}
	}
	// Instantiate parameter-lock edges at call sites until no new concrete
	// edges appear: a helper that locks two of its mutex parameters yields
	// a concrete edge at every caller that passes concrete locks.
	for round := 0; round < 30; round++ {
		changed := false
		for _, k := range p.keys {
			f := p.funcs[k]
			for ci := range f.Calls {
				cs := &f.Calls[ci]
				for _, g := range p.resolve(cs) {
					for _, e := range p.paramEdges[g] {
						from := substLock(e.From, cs.ArgLocks)
						to := substLock(e.To, cs.ArgLocks)
						if from == "" || to == "" || (from == e.From && to == e.To) {
							continue
						}
						e2 := LockEdge{From: from, To: to, Pos: cs.Pos, Func: k, Via: g}
						if isParamLock(from) || isParamLock(to) {
							before := len(p.paramEdges[k])
							p.addLockEdge(e2)
							if len(p.paramEdges[k]) != before {
								changed = true
							}
							continue
						}
						if _, ok := p.lockEdges[from+"|"+to]; !ok {
							p.lockEdges[from+"|"+to] = e2
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// LockGraph returns every concrete lock-order edge, sorted.
func (p *Program) LockGraph() []LockEdge {
	out := make([]LockEdge, 0, len(p.lockEdges))
	for _, e := range p.lockEdges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// LockCycle is one strongly connected component of the lock-order graph:
// a set of locks that can be acquired in inconsistent order.
type LockCycle struct {
	Keys  []string
	Edges []LockEdge
}

// LockCycles finds cycles in the lock-order graph via Tarjan's SCC.
func (p *Program) LockCycles() []LockCycle {
	edges := p.LockGraph()
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From] = true
		nodes[e.To] = true
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	var out []LockCycle
	for _, comp := range sccs {
		sort.Strings(comp)
		member := map[string]bool{}
		for _, k := range comp {
			member[k] = true
		}
		var ce []LockEdge
		for _, e := range edges {
			if member[e.From] && member[e.To] {
				ce = append(ce, e)
			}
		}
		out = append(out, LockCycle{Keys: comp, Edges: ce})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Keys[0] < out[j].Keys[0] })
	return out
}

// BlockReport is one potentially blocking operation reachable while a
// lock is held.
type BlockReport struct {
	Pos    Pos
	Func   string // key of the function holding the lock
	Held   []string
	Kind   BlockKind
	Direct bool
	// For indirect reports: the call chain and the ultimate block site.
	Via    []string
	ViaPos Pos
}

// BlockingUnderLock reports every site where a lock is held across a
// blocking operation — directly, or through a (non-spawn) call whose
// callee may block.
func (p *Program) BlockingUnderLock() []BlockReport {
	var out []BlockReport
	for _, k := range p.keys {
		f := p.funcs[k]
		for _, b := range f.Blocking {
			if len(b.Held) == 0 {
				continue
			}
			out = append(out, BlockReport{
				Pos: b.Pos, Func: k, Held: b.Held, Kind: b.Kind, Direct: true,
			})
		}
		for ci := range f.Calls {
			cs := &f.Calls[ci]
			if cs.Go || len(cs.Held) == 0 {
				continue
			}
			for _, g := range p.resolve(cs) {
				if fg := p.blocks[g]; fg != nil {
					out = append(out, BlockReport{
						Pos: cs.Pos, Func: k, Held: cs.Held, Kind: fg.Kind,
						Via: append([]string{g}, fg.Via...), ViaPos: fg.Pos,
					})
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.File != out[j].Pos.File {
			return out[i].Pos.File < out[j].Pos.File
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// ---- taint propagation -----------------------------------------------------

// obsOpaque reports summaries/field keys belonging to internal/obs, which
// walltaint treats as a terminal: obs stores wall time on purpose (the
// wall-time histogram half), and its internals never feed virtual time.
func obsOpaque(s string) bool {
	return strings.Contains(s, "internal/obs.") || isObsPath(s)
}

func (p *Program) computeTaint() {
	rev := map[string][]string{} // node → dependents
	direct := map[string][]Dep{} // node → source deps hitting it directly

	addDep := func(to string, d Dep, ownerKey string, calls []CallSite) {
		switch d.Kind {
		case DepSource:
			direct[to] = append(direct[to], d)
		case DepParam:
			from := "param:" + ownerKey + ":" + strconv.Itoa(d.Param)
			rev[from] = append(rev[from], to)
		case DepField:
			if obsOpaque(d.Field) {
				return
			}
			from := "field:" + d.Field
			rev[from] = append(rev[from], to)
		case DepCall:
			if d.CallIdx < 0 || d.CallIdx >= len(calls) {
				return
			}
			for _, g := range p.resolve(&calls[d.CallIdx]) {
				if obsOpaque(g) {
					continue
				}
				rev["ret:"+g+":"+strconv.Itoa(d.Ret)] = append(rev["ret:"+g+":"+strconv.Itoa(d.Ret)], to)
			}
		}
	}

	for _, k := range p.keys {
		f := p.funcs[k]
		if isObsPath(f.Pkg) {
			continue
		}
		for ri, deps := range f.ReturnDeps {
			for _, d := range deps {
				addDep("ret:"+k+":"+strconv.Itoa(ri), d, k, f.Calls)
			}
		}
		for ci := range f.Calls {
			cs := &f.Calls[ci]
			if cs.ArgDeps == nil {
				continue
			}
			for _, g := range p.resolve(cs) {
				if obsOpaque(g) {
					continue
				}
				for ai, deps := range cs.ArgDeps {
					for _, d := range deps {
						addDep("param:"+g+":"+strconv.Itoa(ai), d, k, f.Calls)
					}
				}
			}
		}
		for si, s := range f.Sinks {
			for _, d := range s.Deps {
				addDep("sink:"+k+":"+strconv.Itoa(si), d, k, f.Calls)
			}
		}
		for _, st := range f.Stores {
			if obsOpaque(st.Field) {
				continue
			}
			for _, d := range st.Deps {
				addDep("field:"+st.Field, d, k, f.Calls)
			}
		}
	}

	// BFS from directly-sourced nodes, deterministic order.
	var seeds []string
	for n := range direct {
		seeds = append(seeds, n)
	}
	sort.Strings(seeds)
	var queue []string
	for _, n := range seeds {
		p.taintFrom[n] = taintInfo{Source: direct[n][0]}
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		deps := rev[n]
		sort.Strings(deps)
		for _, m := range deps {
			if _, done := p.taintFrom[m]; done {
				continue
			}
			p.taintFrom[m] = taintInfo{Source: p.taintFrom[n].Source, From: n}
			queue = append(queue, m)
		}
	}
}

// TaintReport is one sink reached by wall-clock/randomness taint.
type TaintReport struct {
	Func   string
	Pkg    string
	Sink   SinkSite
	Source Dep
	Path   []string // taint-graph node chain from the source to the sink
}

// TaintedSinks returns every sink a source value can reach.
func (p *Program) TaintedSinks() []TaintReport {
	var out []TaintReport
	for _, k := range p.keys {
		f := p.funcs[k]
		if isObsPath(f.Pkg) {
			continue
		}
		for si, s := range f.Sinks {
			node := "sink:" + k + ":" + strconv.Itoa(si)
			info, ok := p.taintFrom[node]
			if !ok {
				continue
			}
			var path []string
			for n := node; n != ""; {
				path = append([]string{n}, path...)
				n = p.taintFrom[n].From
				if len(path) > 8 {
					break
				}
			}
			out = append(out, TaintReport{
				Func: f.Name, Pkg: f.Pkg, Sink: s, Source: info.Source, Path: path,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sink.Pos.File != out[j].Sink.Pos.File {
			return out[i].Sink.Pos.File < out[j].Sink.Pos.File
		}
		return out[i].Sink.Pos.Line < out[j].Sink.Pos.Line
	})
	return out
}

// ---- atomic/plain mix ------------------------------------------------------

// MixReport is one plain access to a field that is accessed atomically
// elsewhere in the module.
type MixReport struct {
	Field     string
	AtomicPos Pos
	AtomicOp  string
	PlainPos  Pos
	Mode      AtomicMode
	Func      string
}

// AtomicMix returns every plain read/write of a field that any function
// accesses through sync/atomic.
func (p *Program) AtomicMix() []MixReport {
	type access struct {
		fa FieldAccess
		fn string
	}
	byField := map[string][]access{}
	for _, k := range p.keys {
		for _, fa := range p.funcs[k].Fields {
			byField[fa.Field] = append(byField[fa.Field], access{fa, k})
		}
	}
	var fields []string
	for f := range byField {
		fields = append(fields, f)
	}
	sort.Strings(fields)

	var out []MixReport
	for _, field := range fields {
		accs := byField[field]
		sort.Slice(accs, func(i, j int) bool {
			if accs[i].fa.Pos.File != accs[j].fa.Pos.File {
				return accs[i].fa.Pos.File < accs[j].fa.Pos.File
			}
			return accs[i].fa.Pos.Line < accs[j].fa.Pos.Line
		})
		var atomic *access
		plainAny := false
		for i := range accs {
			if accs[i].fa.Mode == AccessAtomic {
				if atomic == nil {
					atomic = &accs[i]
				}
			} else {
				plainAny = true
			}
		}
		if atomic == nil || !plainAny {
			continue
		}
		seen := map[string]bool{}
		for _, a := range accs {
			if a.fa.Mode == AccessAtomic {
				continue
			}
			id := a.fa.Pos.String()
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, MixReport{
				Field: field, AtomicPos: atomic.fa.Pos, AtomicOp: atomic.fa.Op,
				PlainPos: a.fa.Pos, Mode: a.fa.Mode, Func: a.fn,
			})
		}
	}
	return out
}
