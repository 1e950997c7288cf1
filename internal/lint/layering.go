package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// callTarget names a method that is a guarded layer entry point.
type callTarget struct {
	PkgPath  string // defining package import path
	Type     string // receiver named type
	Methods  map[string]bool
	Allowed  map[string]bool // caller import paths allowed to invoke it
	Boundary string          // human name of the boundary, for messages
	// InternalOnly restricts enforcement to callers under <module>/internal:
	// cmd/ and examples/ sit on the host side of the firmware boundary and
	// consume the device API like any host program would.
	InternalOnly bool
}

// Layering enforces the paper's firmware boundary (§3.3) as a declared
// call matrix: raw flash program/erase/charge operations are reachable
// only from the FTL and core layers, and TimeSSD mutation entry points are
// reachable (among internal packages) only from the layers that legitimately
// drive a device: the array, TimeKits, the harness, the file-system
// simulator, and the benchmark bodies. Everything else — the wire protocol
// included, which serves even a single device as a 1-shard array — must go
// through the ftl.Device interface or the array, so that instrumentation,
// striping and the shard worker's ownership of its device cannot be
// bypassed. The multi-tenant volume layer adds two
// more boundaries: tenant mutation and lifecycle calls enter only through
// the wire protocol, harness, or bench, and the array-wide retention bound
// reaches member devices only through the array's fan-out.
type Layering struct {
	// Module is the module path prefix used to resolve caller scope. Empty
	// selects "almanac".
	Module string
	// Targets overrides the production matrix (tests only).
	Targets []callTarget
}

// NewLayering returns the rule with the production matrix.
func NewLayering() *Layering { return &Layering{} }

func (r *Layering) ID() string { return "layering" }

func (r *Layering) Doc() string {
	return "raw flash ops only from ftl/core; core mutation entry points only from array/timekits/harness/fsim/bench; volume mutation and lifecycle only from almaproto/harness/bench"
}

func (r *Layering) matrix() []callTarget {
	if r.Targets != nil {
		return r.Targets
	}
	mod := r.Module
	if mod == "" {
		mod = "almanac"
	}
	return []callTarget{
		{
			PkgPath: mod + "/internal/flash",
			Type:    "Array",
			Methods: map[string]bool{"Program": true, "Erase": true, "Charge": true, "FailReads": true, "SetFaults": true},
			Allowed: map[string]bool{
				mod + "/internal/ftl":  true,
				mod + "/internal/core": true,
			},
			Boundary: "raw flash mutation (firmware boundary, DESIGN.md)",
		},
		{
			PkgPath: mod + "/internal/core",
			Type:    "TimeSSD",
			Methods: map[string]bool{"Write": true, "Trim": true, "Idle": true, "SetFaults": true},
			Allowed: map[string]bool{
				mod + "/internal/array":    true,
				mod + "/internal/timekits": true,
				mod + "/internal/harness":  true,
				mod + "/internal/fsim":     true,
				mod + "/internal/bench":    true,
			},
			Boundary:     "TimeSSD mutation entry points",
			InternalOnly: true,
		},
		{
			// The array-wide retention bound is derived from the volume
			// set; only the array's fan-out may push it down to member
			// devices, so the service can never touch core directly.
			PkgPath: mod + "/internal/core",
			Type:    "TimeSSD",
			Methods: map[string]bool{"SetMinRetention": true},
			Allowed: map[string]bool{
				mod + "/internal/array": true,
			},
			Boundary:     "retention-bound fan-out (array only)",
			InternalOnly: true,
		},
		{
			// Tenant I/O must enter through a checked volume handle: the
			// wire protocol, the harness fleet, and the benchmark bodies.
			// Anything else would bypass extent bounds and window checks.
			// StartBatch is the split-submission form the server's writer
			// goroutine completes — same boundary as Batch.
			PkgPath: mod + "/internal/service",
			Type:    "Volume",
			Methods: map[string]bool{"Write": true, "Trim": true, "Batch": true, "StartBatch": true, "RollBack": true},
			Allowed: map[string]bool{
				mod + "/internal/almaproto": true,
				mod + "/internal/harness":   true,
				mod + "/internal/bench":     true,
			},
			Boundary:     "volume tenant mutation entry points",
			InternalOnly: true,
		},
		{
			PkgPath: mod + "/internal/service",
			Type:    "Service",
			Methods: map[string]bool{"Create": true, "Delete": true},
			Allowed: map[string]bool{
				mod + "/internal/almaproto": true,
				mod + "/internal/harness":   true,
				mod + "/internal/bench":     true,
			},
			Boundary:     "volume lifecycle entry points",
			InternalOnly: true,
		},
	}
}

func (r *Layering) Check(p *Package) []Finding {
	mod := r.Module
	if mod == "" {
		mod = "almanac"
	}
	var out []Finding
	for _, t := range r.matrix() {
		if t.Allowed[p.ImportPath] || p.ImportPath == t.PkgPath {
			continue
		}
		if t.InternalOnly && !strings.HasPrefix(p.ImportPath, mod+"/internal/") {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !t.Methods[fn.Name()] {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				named := namedRecv(sig.Recv().Type())
				if named == nil || named.Obj().Pkg() == nil {
					return true
				}
				if named.Obj().Pkg().Path() != t.PkgPath || named.Obj().Name() != t.Type {
					return true
				}
				out = append(out, finding(p, sel, r.ID(),
					fmt.Sprintf("%s.%s.%s called from %s, which is outside the %s layer set",
						lastSegment(t.PkgPath), t.Type, fn.Name(), p.ImportPath, t.Boundary),
					"go through the ftl.Device interface or the array instead of the raw entry point"))
				return true
			})
		}
	}
	return out
}

// namedRecv unwraps a receiver type to its named type, if any.
func namedRecv(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
