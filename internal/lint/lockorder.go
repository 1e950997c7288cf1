package lint

import (
	"fmt"
	"strings"

	"almanac/internal/lint/flow"
)

// checkLockOrder is the interprocedural lock-discipline rule, subsuming the
// old lexical lockheld check. It derives the whole-module lock-acquisition
// graph — including acquisitions reached through calls, locks passed as
// parameters or through interfaces, and goroutine spawns — and reports:
//
//   - lock-order cycles (two locks taken in opposite orders on different
//     paths: the classic ABBA deadlock), and
//   - blocking operations (channel send/receive/select, WaitGroup.Wait,
//     time.Sleep) reachable while a lock is held, whether the block is in
//     the locked function itself or any callee, plus obs instrumentation
//     calls made directly under a lock.
//
// Scope is the lock-heavy concurrent packages (array, almaproto, service)
// and the rule's own corpus; summaries from the rest of the module still
// feed the graph, so a violation only visible across package boundaries
// is anchored at the in-scope site that triggers it. That scope includes
// the connection writer goroutine of the v4 data path (almaproto's
// sendQueue, one generic type shared by the server and the client), whose
// wake-token protocol exists precisely to keep channel sends outside the
// queue mutex — the corpus writer.go case pins the broken shape.
func checkLockOrder(prog *flow.Program) []Finding {
	inScope := func(importPath string) bool {
		return programScope("lockorder", importPath) &&
			(inTestdata(importPath) || lockOrderPackages[lastSegment(importPath)])
	}
	var out []Finding

	for _, rep := range prog.BlockingUnderLock() {
		f := prog.Func(rep.Func)
		if f == nil || !inScope(f.Pkg) {
			continue
		}
		held := humanLocks(rep.Held)
		if rep.Direct {
			out = append(out, Finding{
				File: rep.Pos.File, Line: rep.Pos.Line, Col: rep.Pos.Col,
				Msg: fmt.Sprintf("%s while holding %s", rep.Kind, held),
				Hint: "move the blocking operation outside the critical section, " +
					"or annotate with //almalint:allow lockorder reason: <why this cannot deadlock>",
			})
			continue
		}
		out = append(out, Finding{
			File: rep.Pos.File, Line: rep.Pos.Line, Col: rep.Pos.Col,
			Msg: fmt.Sprintf("call to %s may block (%s at %s) while holding %s",
				humanFunc(prog, rep.Via[0]), rep.Kind, shortPos(rep.ViaPos), held),
			Hint: fmt.Sprintf("blocking path: %s; release the lock before the call, "+
				"or annotate with //almalint:allow lockorder reason: <why this cannot deadlock>",
				humanChain(prog, rep.Func, rep.Via)),
		})
	}

	for _, cyc := range prog.LockCycles() {
		var anchor *flow.LockEdge
		for i := range cyc.Edges {
			f := prog.Func(cyc.Edges[i].Func)
			if f != nil && inScope(f.Pkg) {
				anchor = &cyc.Edges[i]
				break
			}
		}
		if anchor == nil {
			continue
		}
		var parts []string
		for _, e := range cyc.Edges {
			via := ""
			if e.Via != "" {
				via = " via " + humanFunc(prog, e.Via)
			}
			parts = append(parts, fmt.Sprintf("%s → %s (%s%s)",
				humanLock(e.From), humanLock(e.To), shortPos(e.Pos), via))
		}
		out = append(out, Finding{
			File: anchor.Pos.File, Line: anchor.Pos.Line, Col: anchor.Pos.Col,
			Msg:  fmt.Sprintf("lock-order cycle among %s", humanLocks(cyc.Keys)),
			Hint: "acquisitions: " + strings.Join(parts, "; ") + "; pick one global order and stick to it",
		})
	}
	return out
}

var lockOrderPackages = set("array", "almaproto", "service")

// programScope reports whether a program rule reports in a package: in
// production code every rule does, but within the golden corpus, where
// package checks treat every directory as in scope, a program rule
// reports only in the directory that bears its ID.
func programScope(id, importPath string) bool {
	return !inTestdata(importPath) || lastSegment(importPath) == id
}

// humanLock strips the canonical-key prefixes down to a readable name:
// "T:almanac/internal/array.Array.closeMu" → "array.Array.closeMu".
func humanLock(key string) string {
	switch {
	case strings.HasPrefix(key, "T:"), strings.HasPrefix(key, "G:"):
		return lastSegment(key[2:])
	case strings.HasPrefix(key, "L:"):
		// Function-local fallback key "L:<func>:<expr>" — show the expr.
		rest := key[2:]
		if i := strings.LastIndex(rest, ":"); i >= 0 {
			return rest[i+1:]
		}
		return rest
	case strings.HasPrefix(key, "param:"):
		return "parameter lock " + key[len("param:"):]
	}
	return key
}

func humanLocks(keys []string) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = humanLock(k)
	}
	return strings.Join(out, ", ")
}

// humanFunc renders a function key as "pkg.Name".
func humanFunc(prog *flow.Program, key string) string {
	if f := prog.Func(key); f != nil {
		return lastSegment(f.Pkg) + "." + f.Name
	}
	return key
}

func humanChain(prog *flow.Program, from string, via []string) string {
	parts := []string{humanFunc(prog, from)}
	for _, v := range via {
		parts = append(parts, humanFunc(prog, v))
	}
	return strings.Join(parts, " → ")
}

func shortPos(p flow.Pos) string {
	return fmt.Sprintf("%s:%d", lastSegment(p.File), p.Line)
}
