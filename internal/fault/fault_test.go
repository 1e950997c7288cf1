package fault

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"almanac/internal/vclock"
)

func mustInjector(t *testing.T, p *Plan) *Injector {
	t.Helper()
	inj, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestSeedDeterminism: identical (plan, op stream) pairs must produce
// identical decision histories, including probabilistic rules and
// corruption bit positions; a different seed must diverge.
func TestSeedDeterminism(t *testing.T) {
	plan := func(seed int64) *Plan {
		return &Plan{Seed: seed, Rules: []Rule{
			{Effect: BitFlip, Channel: Any, Block: Any, Page: Any, Bits: 4, Prob: 0.3},
			{Effect: ProgramFail, Channel: Any, Block: Any, Page: Any, Prob: 0.1},
		}}
	}
	history := func(seed int64) ([]Decision, []byte) {
		inj := mustInjector(t, plan(seed))
		var decs []Decision
		data := make([]byte, 64)
		for i := 0; i < 200; i++ {
			addr := Addr{Channel: i % 4, Block: i % 8, Page: i % 16}
			kind := OpRead
			if i%3 == 0 {
				kind = OpProgram
			}
			out := inj.Check(kind, addr, vclock.Time(i))
			decs = append(decs, out.Decision)
			if out.Decision == DecSilent || out.Decision == DecCorrected {
				inj.Corrupt(data, out.Bits)
			}
		}
		return decs, data
	}
	d1, c1 := history(7)
	d2, c2 := history(7)
	d3, _ := history(8)
	if len(d1) != len(d2) {
		t.Fatal("history lengths differ")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("op %d: same seed diverged: %v vs %v", i, d1[i], d2[i])
		}
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("same seed produced different corruption")
	}
	same := true
	for i := range d1 {
		if d1[i] != d3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical probabilistic history")
	}
}

// TestVirtualTimeTrigger: an at= rule stays dormant until virtual time
// reaches it, regardless of how many ops precede it, and first-match-wins
// ordering picks the earliest listed armed rule.
func TestVirtualTimeTrigger(t *testing.T) {
	inj := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Effect: Uncorrectable, Channel: Any, Block: Any, Page: Any, At: vclock.Time(0).Add(vclock.Hour), Count: 1},
		{Effect: PowerCut, Channel: Any, Block: Any, Page: Any, At: vclock.Time(0).Add(2 * vclock.Hour)},
	}})
	addr := Addr{Channel: 0, Block: 0, Page: 0}
	for i := 0; i < 50; i++ {
		if out := inj.Check(OpRead, addr, vclock.Time(0).Add(vclock.Duration(i)*vclock.Minute)); out.Decision != DecNone {
			t.Fatalf("op %d fired %v before its trigger time", i, out.Decision)
		}
	}
	// First op at/after 1h: the uncorrectable rule wins (listed first).
	if out := inj.Check(OpRead, addr, vclock.Time(0).Add(vclock.Hour)); out.Decision != DecUncorrectable {
		t.Fatalf("at 1h: got %v, want uncorrectable", out.Decision)
	}
	// Exhausted (count=1): quiet again until the power cut arms.
	if out := inj.Check(OpRead, addr, vclock.Time(0).Add(90*vclock.Minute)); out.Decision != DecNone {
		t.Fatalf("at 90m: got %v, want none", out.Decision)
	}
	if out := inj.Check(OpProgram, addr, vclock.Time(0).Add(3*vclock.Hour)); out.Decision != DecPowerCut {
		t.Fatalf("at 3h: got %v, want powercut", out.Decision)
	}
	// The cut latches: every later op fails, even at earlier times.
	if out := inj.Check(OpRead, addr, 0); out.Decision != DecPowerCut || !inj.cut {
		t.Fatal("power cut did not latch")
	}
}

// TestAfterOpsCounting: after-ops counts ops of the rule's own kind;
// powercut rules (kindless) count all ops.
func TestAfterOpsCounting(t *testing.T) {
	addr := Addr{}
	inj := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Effect: ProgramFail, Channel: Any, Block: Any, Page: Any, AfterOps: 3, Count: 1},
	}})
	for i := 0; i < 10; i++ { // reads never advance the program counter
		if out := inj.Check(OpRead, addr, 0); out.Decision != DecNone {
			t.Fatal("read advanced a program rule")
		}
	}
	for i := 0; i < 3; i++ {
		if out := inj.Check(OpProgram, addr, 0); out.Decision != DecNone {
			t.Fatalf("program %d fired early", i)
		}
	}
	if out := inj.Check(OpProgram, addr, 0); out.Decision != DecProgramFail {
		t.Fatalf("4th program: got %v, want program-fail", out.Decision)
	}

	cut := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Effect: PowerCut, Channel: Any, Block: Any, Page: Any, AfterOps: 5},
	}})
	ops := []OpKind{OpRead, OpProgram, OpErase, OpRead, OpProgram}
	for i, k := range ops {
		if out := cut.Check(k, addr, 0); out.Decision != DecNone {
			t.Fatalf("mixed op %d fired early", i)
		}
	}
	if out := cut.Check(OpErase, addr, 0); out.Decision != DecPowerCut {
		t.Fatalf("6th op: got %v, want powercut", out.Decision)
	}
}

// TestECCBudgetBoundary: bits ≤ budget corrects, bits = budget+1 is
// uncorrectable, silent always bypasses ECC.
func TestECCBudgetBoundary(t *testing.T) {
	const budget = 6
	for _, tc := range []struct {
		name   string
		bits   int
		silent bool
		want   Decision
	}{
		{"under budget", budget - 1, false, DecCorrected},
		{"exactly budget", budget, false, DecCorrected},
		{"one past budget", budget + 1, false, DecUncorrectable},
		{"silent under budget", budget - 1, true, DecSilent},
		{"silent past budget", budget + 40, true, DecSilent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := mustInjector(t, &Plan{Seed: 1, ECCBudget: budget, Rules: []Rule{
				{Effect: BitFlip, Channel: Any, Block: Any, Page: Any, Bits: tc.bits, Silent: tc.silent, Count: 1},
			}})
			out := inj.Check(OpRead, Addr{}, 0)
			if out.Decision != tc.want {
				t.Fatalf("bits=%d silent=%v: got %v, want %v", tc.bits, tc.silent, out.Decision, tc.want)
			}
			if out.Decision == DecSilent && out.Bits != tc.bits {
				t.Fatalf("silent outcome lost bit count: %d", out.Bits)
			}
		})
	}
	if mustInjector(t, &Plan{Seed: 1}).budget != DefaultECCBudget {
		t.Fatal("zero budget did not default")
	}
}

func TestAddressPredicates(t *testing.T) {
	inj := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Effect: EraseFail, Channel: 1, Block: 5, Page: Any},
	}})
	if out := inj.Check(OpErase, Addr{Channel: 0, Block: 5, Page: -1}, 0); out.Decision != DecNone {
		t.Fatal("wrong channel matched")
	}
	if out := inj.Check(OpErase, Addr{Channel: 1, Block: 4, Page: -1}, 0); out.Decision != DecNone {
		t.Fatal("wrong block matched")
	}
	if out := inj.Check(OpErase, Addr{Channel: 1, Block: 5, Page: -1}, 0); out.Decision != DecEraseFail {
		t.Fatal("exact address did not match")
	}
}

func TestCorruptFlipsExactly(t *testing.T) {
	inj := mustInjector(t, &Plan{Seed: 3})
	data := make([]byte, 128)
	inj.Corrupt(data, 5)
	flipped := 0
	for _, b := range data {
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	// Positions are drawn independently, so collisions can cancel; the
	// count must be ≤ requested and of the same parity.
	if flipped == 0 || flipped > 5 || flipped%2 != 5%2 {
		t.Fatalf("corrupt flipped %d bits for a budget of 5", flipped)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"negative budget", Plan{ECCBudget: -1}},
		{"prob out of range", Plan{Rules: []Rule{{Effect: Uncorrectable, Channel: Any, Block: Any, Page: Any, Prob: 1.5}}}},
		{"negative count", Plan{Rules: []Rule{{Effect: Uncorrectable, Channel: Any, Block: Any, Page: Any, Count: -1}}}},
		{"bitflip without bits", Plan{Rules: []Rule{{Effect: BitFlip, Channel: Any, Block: Any, Page: Any}}}},
		{"silent non-bitflip", Plan{Rules: []Rule{{Effect: ProgramFail, Channel: Any, Block: Any, Page: Any, Silent: true}}}},
		{"address below Any", Plan{Rules: []Rule{{Effect: Uncorrectable, Channel: -2, Block: Any, Page: Any}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewInjector(&tc.plan); err == nil {
				t.Fatal("invalid plan accepted")
			}
		})
	}
	if _, err := NewInjector(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestReseededIsolation(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{{Effect: Uncorrectable, Channel: Any, Block: Any, Page: Any}}}
	q := p.Reseeded(9)
	if q.Seed != 9 || p.Seed != 1 {
		t.Fatalf("reseed wrong: %d/%d", q.Seed, p.Seed)
	}
	q.Rules[0].Block = 3
	if p.Rules[0].Block != Any {
		t.Fatal("Reseeded shares the rule slice")
	}
}

func TestParseTable(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		wantErr    string
		check      func(*Plan) error
	}{
		{
			name: "full plan",
			text: "# header comment\nseed 42\necc-budget 12\nread uncorrectable block=3 page=7 count=1\nread bitflip bits=4 prob=0.25\nprogram fail after-ops=100 count=2\nerase fail block=5\npowercut at=1.5s\n",
			check: func(p *Plan) error {
				if p.Seed != 42 || p.ECCBudget != 12 || len(p.Rules) != 5 {
					return errors.New("header fields or rule count wrong")
				}
				r := p.Rules[0]
				if r.Effect != Uncorrectable || r.Block != 3 || r.Page != 7 || r.Channel != Any || r.Count != 1 {
					return errors.New("rule 0 wrong")
				}
				if p.Rules[1].Bits != 4 || p.Rules[1].Prob != 0.25 {
					return errors.New("rule 1 wrong")
				}
				if p.Rules[2].AfterOps != 100 || p.Rules[2].Count != 2 {
					return errors.New("rule 2 wrong")
				}
				if p.Rules[4].At != vclock.Time(0).Add(1500*vclock.Millisecond) {
					return errors.New("rule 4 at wrong")
				}
				return nil
			},
		},
		{name: "silent flag", text: "read bitflip bits=40 silent\n", check: func(p *Plan) error {
			if !p.Rules[0].Silent {
				return errors.New("silent not set")
			}
			return nil
		}},
		{name: "empty plan", text: "# nothing\n\n", check: func(p *Plan) error {
			if len(p.Rules) != 0 {
				return errors.New("rules from nothing")
			}
			return nil
		}},
		{name: "unknown directive", text: "explode now\n", wantErr: "unknown"},
		{name: "bad option", text: "read uncorrectable sauce=1\n", wantErr: "sauce"},
		{name: "negative at", text: "powercut at=-1s\n", wantErr: "at"},
		{name: "bad prob", text: "read uncorrectable prob=nope\n", wantErr: "prob"},
		{name: "invalid plan", text: "read bitflip bits=0\n", wantErr: "bits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.text)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(p); err != nil {
				t.Fatalf("%v in plan %+v", err, p)
			}
		})
	}
}

// TestPlanRoundTrip: String must serialise to text Parse reads back to an
// equivalent plan, including every option.
func TestPlanRoundTrip(t *testing.T) {
	text := "seed 42\necc-budget 12\nread uncorrectable channel=1 block=3 page=7 count=1\nread bitflip bits=40 silent prob=0.5\nprogram fail after-ops=10\nerase fail block=5 at=2s\npowercut after-ops=500\n"
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if p.String() != q.String() {
		t.Fatalf("round trip not fixed-point:\n%q\nvs\n%q", p.String(), q.String())
	}
	if q.Seed != 42 || q.ECCBudget != 12 || len(q.Rules) != 5 {
		t.Fatalf("round trip lost fields: %+v", q)
	}
	for i := range p.Rules {
		if p.Rules[i] != q.Rules[i] {
			t.Fatalf("rule %d changed: %+v vs %+v", i, p.Rules[i], q.Rules[i])
		}
	}
}
