package lint

import "strings"

// checkAllowReasons enforces the suppression-comment contract: every
// //almalint:allow directive must name at least one rule ID and carry a
// "reason:" suffix with non-empty justification text. A suppression
// without a recorded reason is indistinguishable from a silenced bug six
// months later. Findings from this rule are themselves never suppressible.
func checkAllowReasons(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				ids, rest, ok := allowIDs(c)
				switch {
				case !ok:
				case len(ids) == 0:
					out = append(out, finding(p, c,
						"allow directive names no rule IDs",
						"format: //almalint:allow <rule-id>[, <rule-id>...] reason: <justification>"))
				case !hasReason(rest):
					out = append(out, finding(p, c,
						"allow directive has no reason: justification",
						"append 'reason: <why this finding is a documented false positive>'"))
				}
			}
		}
	}
	return out
}

// hasReason reports whether the tokens after a directive's ID list hold
// "reason:" followed by some text, in the same token or the next.
func hasReason(fields []string) bool {
	for i, fld := range fields {
		if text, ok := strings.CutPrefix(fld, "reason:"); ok && (text != "" || i+1 < len(fields)) {
			return true
		}
	}
	return false
}
