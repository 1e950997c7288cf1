package lint

import (
	"fmt"

	"almanac/internal/lint/flow"
)

// checkAtomicMix flags fields (and module-level variables) that are accessed
// through sync/atomic somewhere but read or written plainly somewhere
// else — anywhere in the module, across package boundaries. A single
// plain access to an atomically-updated word is a data race the compiler
// accepts silently and the race detector only reports on the schedules
// that interleave it; the obs seqlock ring and the lock-free stats
// snapshots rely on every access agreeing on atomicity.
func checkAtomicMix(prog *flow.Program) []Finding {
	var out []Finding
	for _, rep := range prog.AtomicMix() {
		f := prog.Func(rep.Func)
		if f == nil || !programScope("atomicmix", f.Pkg) {
			continue
		}
		out = append(out, Finding{
			File: rep.PlainPos.File, Line: rep.PlainPos.Line, Col: rep.PlainPos.Col,
			Msg: fmt.Sprintf("plain %s of %s, which is accessed via atomic.%s at %s",
				rep.Mode, humanLock(("T:" + rep.Field)), rep.AtomicOp, shortPos(rep.AtomicPos)),
			Hint: "use sync/atomic (or a typed atomic) for every access to this word, " +
				"or annotate with //almalint:allow atomicmix reason: <why this access cannot race>",
		})
	}
	return out
}
