package lint

import (
	"fmt"
	"strings"

	"almanac/internal/lint/flow"
)

// checkWallTaint is the interprocedural determinism rule. Where the classic
// wallclock rule bans *calling* time.Now in simulation packages, this one
// proves the stronger property the figures depend on: no wall-clock or
// host-randomness value — wherever it was read — ever *flows* into a
// virtual-time sink. Sinks are the points where a value becomes virtual
// time: conversions into vclock.Time/vclock.Duration (virtual-time
// results and every wire payload / harness table derives from those), and
// the virtual-nanosecond arguments of obs.Observe/obs.Record (the virtual
// histogram half). Taint is tracked through assignments, struct fields,
// call arguments, and return values across the whole module; the obs
// package itself is opaque — it stores wall time on purpose, in the
// wall-time histogram half, and never feeds it back into virtual time.
func checkWallTaint(prog *flow.Program) []Finding {
	var out []Finding
	for _, rep := range prog.TaintedSinks() {
		if !programScope("walltaint", rep.Pkg) {
			continue
		}
		hint := "derive virtual time from vclock arithmetic only; if this value is genuinely virtual, " +
			"annotate with //almalint:allow walltaint reason: <why>"
		if len(rep.Path) > 1 {
			hint = "taint path: " + strings.Join(rep.Path, " → ") + "; " + hint
		}
		out = append(out, Finding{
			File: rep.Sink.Pos.File, Line: rep.Sink.Pos.Line, Col: rep.Sink.Pos.Col,
			Msg: fmt.Sprintf("wall-clock value from %s (%s) reaches %s in %s",
				rep.Source.Source, shortPos(rep.Source.Pos), rep.Sink.What, rep.Func),
			Hint: hint,
		})
	}
	return out
}
