// Package flow is almalint's interprocedural analysis framework: a
// whole-repo call graph built from per-function summaries, a worklist
// fixpoint over those summaries, and goroutine-spawn / channel-edge
// modeling. It is built entirely on the standard library (go/ast,
// go/types) and deliberately splits analysis into two phases:
//
//   - Extraction (extract.go) turns one type-checked package into a set
//     of FuncSummary values: plain data, with no AST or types.Info
//     pointers, so linking never reaches back into a package's syntax.
//
//   - Linking (program.go) joins every summary into a Program: call
//     edges are resolved (including interface calls, matched by method
//     name + canonical signature), lock placeholders are substituted
//     through call sites, and worklist fixpoints compute the transitive
//     facts the program rules ask about — which locks a call may acquire,
//     whether it may block, and where wall-clock taint can flow.
//
// The rules themselves (lockorder, walltaint, atomicmix) live in
// package lint and phrase Program queries as findings.
package flow

import "fmt"

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%s:%d", p.File, p.Line) }

// IsValid reports whether the position was filled in.
func (p Pos) IsValid() bool { return p.File != "" && p.Line > 0 }

// DepKind classifies one taint dependency of an expression.
type DepKind string

const (
	// DepSource is a direct wall-clock/randomness source (time.Now, ...).
	DepSource DepKind = "source"
	// DepParam is the value of the enclosing function's i-th parameter.
	DepParam DepKind = "param"
	// DepCall is the result of a call recorded as Calls[CallIdx].
	DepCall DepKind = "call"
	// DepField is the value loaded from a struct field or module-level var.
	DepField DepKind = "field"
)

// Dep is one taint dependency: the ways a value at some program point can
// have become wall-clock-derived.
type Dep struct {
	Kind DepKind
	// Source: human description of the source ("time.Now") and its position.
	Source string
	Pos    Pos
	// Param: parameter index in the enclosing function.
	Param int
	// Call: index into the enclosing summary's Calls slice, plus which
	// result of that call (tuple returns are tracked positionally so a
	// wall-clock duration in one result does not taint its siblings).
	CallIdx int
	Ret     int
	// Field: canonical field key ("pkg/path.Type.field" or "pkg/path.var").
	Field string
}

// CallSite is one call (or goroutine spawn, or function-value reference)
// recorded in a function body.
type CallSite struct {
	Pos Pos

	// Callee is the canonical key of a statically resolved module
	// function, or "" for interface/dynamic calls.
	Callee string

	// Method/Sig identify an interface method call for link-time
	// resolution: every module method with the same name and canonical
	// signature is a candidate target. Iface narrows the candidates to
	// receiver types whose declared method set covers the interface's
	// complete method set (sorted "name|sig" entries) — without it, one
	// shared method name like Close() error would glue unrelated types
	// into the call graph.
	Method string
	Sig    string
	Iface  []string

	// Go marks goroutine spawns and function values that escape the call
	// site (stored, passed as an argument): the callee runs, but on its
	// own schedule, so lock-held state never propagates across this edge.
	Go bool

	// Held is the set of canonical lock keys lexically held at the call.
	Held []string

	// ArgDeps holds, per argument, the taint dependencies of the argument
	// expression (nil when an argument has none).
	ArgDeps [][]Dep

	// ArgLocks maps argument index to a canonical lock key when the
	// argument is a recognizable lock value (&x.mu, x.mu, a *sync.Mutex
	// parameter); the linker substitutes these for the callee's
	// parameter-lock placeholders.
	ArgLocks map[int]string
}

// BlockKind classifies a potentially blocking operation.
type BlockKind string

const (
	BlockSend    BlockKind = "chan-send"
	BlockRecv    BlockKind = "chan-recv"
	BlockSelect  BlockKind = "select"
	BlockRange   BlockKind = "chan-range"
	BlockWait    BlockKind = "wg-wait"
	BlockSleep   BlockKind = "sleep"
	BlockObsCall BlockKind = "obs-call"
)

// Blocking reports whether the kind is a true scheduling block (as
// opposed to the obs instrumentation-cost policy, which is checked only
// at the site itself, never propagated through calls).
func (k BlockKind) Blocking() bool { return k != BlockObsCall }

func (k BlockKind) String() string {
	switch k {
	case BlockSend:
		return "channel send"
	case BlockRecv:
		return "channel receive"
	case BlockSelect:
		return "select"
	case BlockRange:
		return "range over channel"
	case BlockWait:
		return "sync.WaitGroup.Wait"
	case BlockSleep:
		return "time.Sleep"
	case BlockObsCall:
		return "obs instrumentation call"
	default:
		return string(k)
	}
}

// BlockSite is one potentially blocking operation.
type BlockSite struct {
	Pos  Pos
	Kind BlockKind
	// Held is the set of canonical lock keys lexically held at the site.
	Held []string
}

// LockSite is one lock acquisition.
type LockSite struct {
	Pos Pos
	// Key is the canonical lock key being acquired.
	Key string
	// Held is the set of keys already held when acquiring (each yields a
	// lock-order edge Held[i] → Key).
	Held []string
}

// AtomicMode classifies a struct-field access for the atomicmix rule.
type AtomicMode string

const (
	AccessAtomic AtomicMode = "atomic"
	AccessRead   AtomicMode = "read"
	AccessWrite  AtomicMode = "write"
)

// FieldAccess is one access to an integer-kinded struct field that could
// participate in a mixed atomic/plain access bug.
type FieldAccess struct {
	Pos   Pos
	Field string
	Mode  AtomicMode
	// Op names the sync/atomic function for atomic accesses.
	Op string
}

// SinkSite is one place a value flows into a determinism-critical
// location: a vclock.Time/Duration conversion or slot, or an obs
// virtual-time histogram parameter.
type SinkSite struct {
	Pos Pos
	// What describes the sink ("conversion to vclock.Time",
	// "virtual-time argument of obs.Registry.Record", ...).
	What string
	// Deps are the taint dependencies of the value reaching the sink.
	Deps []Dep
}

// FieldStore records taint flowing into a struct field or module-level
// variable.
type FieldStore struct {
	Field string
	Deps  []Dep
}

// FuncSummary is the complete analysis summary of one
// function, method, or function literal.
type FuncSummary struct {
	// Key is the canonical symbol: "pkg/path.Func",
	// "pkg/path.(*Type).Method", or "pkg/path.Parent$N" for literals.
	Key string
	// Pkg is the import path of the declaring package.
	Pkg string
	// Name is the display name ("(*Array).Submit", "fanOut$1").
	Name string
	Pos  Pos

	// Method and Sig are set for methods: the bare method name and the
	// canonical receiver-less signature, used to resolve interface calls.
	Method string
	Sig    string

	Calls    []CallSite
	Locks    []LockSite
	Blocking []BlockSite
	Fields   []FieldAccess
	Sinks    []SinkSite
	Stores   []FieldStore
	// ReturnDeps are the taint dependencies of the function's results,
	// indexed by result position.
	ReturnDeps [][]Dep
}

// ParamLockKey is the placeholder lock key for a mutex reaching a
// function as parameter i; the linker substitutes the caller's ArgLocks.
func ParamLockKey(i int) string { return fmt.Sprintf("param:%d", i) }
