// Package fault is the deterministic NAND failure model: a seeded,
// plan-driven injector the flash array consults on every Read, Program and
// Erase. Real SSD firmware is defined by how it survives the failures NAND
// actually throws — program/erase failures that grow bad blocks, reads that
// come back past ECC, and power cuts that tear the page being programmed —
// and a reproduction is only trustworthy if those failures are schedulable
// and replayable. Faults here trigger by virtual time, by op count, or by
// (channel, block, page) predicate, with an optional probability drawn from
// the plan's own seeded stream, so a (plan, workload) pair always produces
// the same failure history.
//
// The package is a leaf: it imports only vclock, so every layer (flash
// first of all) can depend on it without cycles. Plans should be built with
// Parse or by the harness; almalint's faultplan rule keeps ad-hoc Plan
// literals out of the firmware layers.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"almanac/internal/vclock"
)

// Typed fault errors. The flash layer wraps these with address context;
// callers match with errors.Is.
var (
	// ErrUncorrectable is a read whose raw bit errors exceed what the ECC
	// budget can repair. The page's content is lost.
	ErrUncorrectable = errors.New("fault: uncorrectable read error")
	// ErrProgramFail is a page program that failed verify. The page is
	// burned (unusable until its block is erased); firmware must relocate
	// the write to another page.
	ErrProgramFail = errors.New("fault: page program failed")
	// ErrEraseFail is a block erase failure. The block is worn out and must
	// be retired as a grown bad block.
	ErrEraseFail = errors.New("fault: block erase failed")
	// ErrPowerCut reports that power was lost. The op in flight is torn;
	// every later op fails with the same error until the array is brought
	// back by an image round trip and a rebuild.
	ErrPowerCut = errors.New("fault: power cut")
)

// OpKind classifies the flash operation being checked.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpProgram
	OpErase
	numOps
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Effect is what a triggered rule does to the operation.
type Effect uint8

const (
	// Uncorrectable fails a read outright (bit errors past any ECC).
	Uncorrectable Effect = iota
	// BitFlip flips Rule.Bits random bits in the page being read. Within
	// the plan's ECC budget the flips are corrected (the read succeeds and
	// the correction is counted); past the budget the read fails
	// uncorrectable — unless the rule is Silent, in which case the
	// corrupted data is returned as if it were good.
	BitFlip
	// ProgramFail fails a page program, burning the page.
	ProgramFail
	// EraseFail fails a block erase, growing a bad block.
	EraseFail
	// PowerCut kills the array mid-operation.
	PowerCut
)

func (e Effect) String() string {
	switch e {
	case Uncorrectable:
		return "uncorrectable"
	case BitFlip:
		return "bitflip"
	case ProgramFail:
		return "program-fail"
	case EraseFail:
		return "erase-fail"
	case PowerCut:
		return "powercut"
	default:
		return fmt.Sprintf("effect(%d)", uint8(e))
	}
}

// Addr locates the page (or block) an operation targets. Erase checks carry
// Page = -1.
type Addr struct {
	Channel int
	Block   int
	Page    int
}

// Any matches every value of a rule's Channel/Block/Page predicate.
const Any = -1

// Rule schedules one fault. A rule arms when all of its predicates hold:
// the op kind matches the effect's domain, the address fields match
// (Any ignores a field), virtual time has reached At, and AfterOps matching
// operations have already been checked. An armed rule then fires with
// probability Prob (0 means always), at most Count times (0 means
// unlimited). PowerCut rules match any op kind.
type Rule struct {
	Effect   Effect
	Channel  int // Any or exact channel
	Block    int // Any or exact block index
	Page     int // Any or exact in-block page offset
	At       vclock.Time
	AfterOps int64 // ops of the matching kind that must precede the rule
	Count    int
	Prob     float64
	Bits     int  // BitFlip: raw bit errors per read
	Silent   bool // BitFlip: corruption bypasses ECC detection entirely
}

// op returns the op kind the rule's effect applies to; ok is false for
// PowerCut, which applies to all kinds.
func (r *Rule) op() (OpKind, bool) {
	switch r.Effect {
	case Uncorrectable, BitFlip:
		return OpRead, true
	case ProgramFail:
		return OpProgram, true
	case EraseFail:
		return OpErase, true
	default:
		return 0, false
	}
}

// DefaultECCBudget is the per-page correctable-bit budget used when a plan
// does not set one — a BCH-class code comfortably correcting a handful of
// bits per 2–4 KiB page.
const DefaultECCBudget = 8

// Plan is a complete, self-contained fault schedule.
type Plan struct {
	// Seed drives the plan's private random stream (probabilistic rules and
	// corruption bit positions). Identical (plan, workload) pairs replay
	// the identical failure history.
	Seed int64
	// ECCBudget is the number of raw bit errors per page the modelled ECC
	// corrects. Zero selects DefaultECCBudget.
	ECCBudget int
	Rules     []Rule
}

// Validate checks the plan's rules for nonsense values.
func (p *Plan) Validate() error {
	if p.ECCBudget < 0 {
		return fmt.Errorf("fault: negative ecc-budget %d", p.ECCBudget)
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Effect > PowerCut {
			return fmt.Errorf("fault: rule %d: unknown effect %d", i, uint8(r.Effect))
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("fault: rule %d: prob %v outside [0,1]", i, r.Prob)
		}
		if r.Count < 0 || r.AfterOps < 0 || r.At < 0 {
			return fmt.Errorf("fault: rule %d: negative trigger field", i)
		}
		if r.Effect == BitFlip && r.Bits <= 0 {
			return fmt.Errorf("fault: rule %d: bitflip needs bits > 0", i)
		}
		if r.Silent && r.Effect != BitFlip {
			return fmt.Errorf("fault: rule %d: silent applies only to bitflip", i)
		}
		for _, v := range []int{r.Channel, r.Block, r.Page} {
			if v < Any {
				return fmt.Errorf("fault: rule %d: address predicate %d below Any", i, v)
			}
		}
	}
	return nil
}

// Reseeded returns a copy of the plan with a different seed — how a
// multi-shard array derives per-shard streams from one plan.
func (p *Plan) Reseeded(seed int64) *Plan {
	cp := *p
	cp.Seed = seed
	cp.Rules = append([]Rule(nil), p.Rules...)
	return &cp
}

// Decision is the injector's verdict on one operation.
type Decision uint8

const (
	// DecNone lets the operation proceed untouched.
	DecNone Decision = iota
	// DecCorrected: bit errors occurred but ECC repaired them; the read
	// succeeds with clean data and the correction should be counted.
	DecCorrected
	// DecUncorrectable fails the read with ErrUncorrectable.
	DecUncorrectable
	// DecSilent: the read succeeds but Outcome.Bits bits of the returned
	// data must be flipped (corruption below the detection floor).
	DecSilent
	// DecProgramFail burns the page and fails with ErrProgramFail.
	DecProgramFail
	// DecEraseFail retires the block and fails with ErrEraseFail.
	DecEraseFail
	// DecPowerCut kills the array and fails with ErrPowerCut.
	DecPowerCut
)

// Outcome is what Check tells the flash layer to do.
type Outcome struct {
	Decision Decision
	Bits     int // DecSilent: bits to flip in the returned copy
}

// Injector evaluates a plan against the operation stream. It is safe for
// concurrent use; the flash array calls Check under its own lock but peeks
// and multi-shard tooling may race with it.
type Injector struct {
	mu       sync.Mutex
	plan     Plan
	rng      *rand.Rand
	budget   int
	opSeen   [numOps]int64 // ops checked so far, by kind
	totalOps int64
	fired    []int // firings per rule
	cut      bool
}

// NewInjector compiles a plan. The plan is copied; later mutation of the
// caller's Plan does not affect the injector.
func NewInjector(p *Plan) (*Injector, error) {
	if p == nil {
		return nil, errors.New("fault: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := *p
	cp.Rules = append([]Rule(nil), p.Rules...)
	budget := cp.ECCBudget
	if budget == 0 {
		budget = DefaultECCBudget
	}
	return &Injector{
		plan:   cp,
		rng:    rand.New(rand.NewSource(cp.Seed)),
		budget: budget,
		fired:  make([]int, len(cp.Rules)),
	}, nil
}

// ECCBudget returns the effective per-page correctable-bit budget.
func (i *Injector) ECCBudget() int { return i.budget }

// Check evaluates the plan for one operation at virtual time `at`. Rules
// are evaluated in plan order; the first rule that fires decides the
// operation's fate. Once a PowerCut rule has fired, every subsequent check
// returns DecPowerCut.
func (i *Injector) Check(op OpKind, addr Addr, at vclock.Time) Outcome {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cut {
		return Outcome{Decision: DecPowerCut}
	}
	seenKind := i.opSeen[op]
	seenAll := i.totalOps
	i.opSeen[op]++
	i.totalOps++
	for ri := range i.plan.Rules {
		r := &i.plan.Rules[ri]
		ruleOp, kinded := r.op()
		if kinded && ruleOp != op {
			continue
		}
		if r.Channel != Any && r.Channel != addr.Channel {
			continue
		}
		if r.Block != Any && r.Block != addr.Block {
			continue
		}
		if r.Page != Any && r.Page != addr.Page {
			continue
		}
		if at < r.At {
			continue
		}
		seen := seenKind
		if !kinded {
			seen = seenAll
		}
		if seen < r.AfterOps {
			continue
		}
		if r.Count > 0 && i.fired[ri] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && i.rng.Float64() >= r.Prob {
			continue
		}
		i.fired[ri]++
		switch r.Effect {
		case Uncorrectable:
			return Outcome{Decision: DecUncorrectable}
		case BitFlip:
			if r.Silent {
				return Outcome{Decision: DecSilent, Bits: r.Bits}
			}
			if r.Bits <= i.budget {
				return Outcome{Decision: DecCorrected, Bits: r.Bits}
			}
			return Outcome{Decision: DecUncorrectable, Bits: r.Bits}
		case ProgramFail:
			return Outcome{Decision: DecProgramFail}
		case EraseFail:
			return Outcome{Decision: DecEraseFail}
		case PowerCut:
			i.cut = true
			return Outcome{Decision: DecPowerCut}
		}
	}
	return Outcome{}
}

// Corrupt flips `bits` random bit positions of data in place, drawing
// positions from the plan's seeded stream (so corruption is replayable).
func (i *Injector) Corrupt(data []byte, bits int) {
	if len(data) == 0 || bits <= 0 {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	n := len(data) * 8
	for k := 0; k < bits; k++ {
		bit := i.rng.Intn(n)
		data[bit/8] ^= 1 << (bit % 8)
	}
}

// Cut reports whether a PowerCut rule has fired.
func (i *Injector) Cut() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cut
}
