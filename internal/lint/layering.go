package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// callTarget names a method that is a guarded layer entry point.
// Packages are named relative to internalPrefix.
type callTarget struct {
	pkg      string // defining package
	typ      string // receiver named type
	methods  map[string]bool
	allowed  map[string]bool // caller packages allowed to invoke it
	boundary string          // human name of the boundary, for messages
	// internalOnly restricts enforcement to callers under internal/: cmd/
	// and examples/ sit on the host side of the firmware boundary and
	// consume the device API like any host program would.
	internalOnly bool
}

// layers is the paper's firmware boundary (§3.3) as a declared call
// matrix: raw flash program/erase/charge operations are reachable only
// from the FTL and core layers, and TimeSSD mutation entry points are
// reachable (among internal packages) only from the layers that legitimately
// drive a device: the array, TimeKits, the harness and the file-system
// simulator. Everything else — the wire protocol included, which serves
// even a single device as a 1-shard array — must go through the ftl.Device
// interface or the array, so that instrumentation, striping and the shard
// worker's ownership of its device cannot be bypassed. The multi-tenant
// volume layer adds two more boundaries: tenant mutation and lifecycle
// calls enter only through the wire protocol or the harness, and the
// array-wide retention bound reaches member devices only through the
// array's fan-out.
var layers = []callTarget{
	{
		pkg: "flash", typ: "Array",
		methods:  set("Program", "Erase", "Charge", "ChargeReads", "SetFaults"),
		allowed:  set("ftl", "core"),
		boundary: "raw flash mutation (firmware boundary, DESIGN.md)",
	},
	{
		pkg: "core", typ: "TimeSSD",
		methods:      set("Write", "Trim", "Idle", "SetFaults"),
		allowed:      set("array", "timekits", "harness", "fsim"),
		boundary:     "TimeSSD mutation entry points",
		internalOnly: true,
	},
	{
		// The array-wide retention bound is derived from the volume
		// set; only the array's fan-out may push it down to member
		// devices, so the service can never touch core directly.
		pkg: "core", typ: "TimeSSD",
		methods:      set("SetMinRetention"),
		allowed:      set("array"),
		boundary:     "retention-bound fan-out (array only)",
		internalOnly: true,
	},
	{
		// Tenant I/O must enter through a checked volume handle: the
		// wire protocol and the harness fleet. Anything else would bypass
		// extent bounds and window checks. StartBatch carries every
		// tenant read, write and trim; RollBack the volume's time travel.
		pkg: "service", typ: "Volume",
		methods:      set("StartBatch", "RollBack"),
		allowed:      set("almaproto", "harness"),
		boundary:     "volume tenant mutation entry points",
		internalOnly: true,
	},
	{
		pkg: "service", typ: "Service",
		methods:      set("Create", "Delete"),
		allowed:      set("almaproto", "harness"),
		boundary:     "volume lifecycle entry points",
		internalOnly: true,
	},
}

// checkLayering reports calls that cross a boundary of the layers matrix
// from a package outside the boundary's allowed set.
func checkLayering(p *Package) []Finding {
	rel, internal := strings.CutPrefix(p.ImportPath, internalPrefix)
	var out []Finding
	for _, t := range layers {
		if internal && (t.allowed[rel] || rel == t.pkg) || t.internalOnly && !internal {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !t.methods[fn.Name()] {
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
				if named.Obj().Pkg().Path() != internalPrefix+t.pkg || named.Obj().Name() != t.typ {
					return true
				}
				out = append(out, finding(p, sel,
					fmt.Sprintf("%s.%s.%s called from %s, which is outside the %s layer set",
						t.pkg, t.typ, fn.Name(), p.ImportPath, t.boundary),
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
