package trace

import (
	"encoding/binary"
	"math"
)

// ContentMode selects how write payloads are synthesised.
type ContentMode int

const (
	// ContentSimilar produces successive versions of a page that differ in
	// a controlled fraction of bytes, so the measured delta-compression
	// ratio follows a Gaussian around MeanRatio — the paper's model of
	// real content locality (§5.2, citing I-CASH: mean 0.05–0.25).
	ContentSimilar ContentMode = iota
	// ContentRandom produces incompressible random pages (IOZone writes
	// random values; delta compression gains nothing, §5.3).
	ContentRandom
	// ContentZero produces all-zero pages (maximally compressible).
	ContentZero
)

// ContentGen deterministically synthesises page content for writes.
//
// For ContentSimilar, version v of page L is  base(L) XOR sparse(L, v),
// where sparse flips a small set of byte positions. Any two versions of L
// then differ in a bounded set of bytes regardless of how many versions
// lie between them — matching the paper's observation that deltas against
// the latest version stay small — and nothing needs to be cached to
// regenerate any version.
type ContentGen struct {
	PageSize  int
	Mode      ContentMode
	MeanRatio float64 // target mean delta-compression ratio
	StdRatio  float64 // Gaussian spread of the ratio
	Seed      int64

	ver map[uint64]uint64 // next version number per LPA

	// A stripe (see Stripe) is called with shard-local LPAs and generates
	// for global LPA local·stride + offset; a whole generator has stride 1.
	stride, offset uint64
}

// NewContentGen returns a generator with the paper's default ratio model
// (mean 0.2, std 0.05).
func NewContentGen(pageSize int, mode ContentMode, seed int64) *ContentGen {
	return &ContentGen{
		PageSize:  pageSize,
		Mode:      mode,
		MeanRatio: 0.2,
		StdRatio:  0.05,
		Seed:      seed,
		ver:       make(map[uint64]uint64),
		stride:    1,
	}
}

// Stripe splits g across the shards of an n-way striped array (global LPA
// = local·n + shard). Shard s's generator is called with local LPAs and
// yields, version for version, exactly the bytes g would yield for the
// global LPA. Each stripe counts versions in a map of its own, so the
// stripes can generate concurrently; Unstripe folds their counts back.
func (g *ContentGen) Stripe(n int) []*ContentGen {
	parts := make([]*ContentGen, n)
	for s := range parts {
		p := *g
		p.ver = make(map[uint64]uint64)
		p.stride, p.offset = uint64(n), uint64(s)
		parts[s] = &p
	}
	for lpa, v := range g.ver {
		parts[lpa%uint64(n)].ver[lpa] = v
	}
	return parts
}

// Unstripe folds the version counts of g's stripes back into g, as if g
// had generated every version itself.
func (g *ContentGen) Unstripe(parts []*ContentGen) {
	for _, p := range parts {
		for lpa, v := range p.ver {
			g.ver[lpa] = v
		}
	}
}

func mix(a, b, c int64) int64 {
	x := uint64(a) * 0x9e3779b97f4a7c15
	x ^= uint64(b) + 0xbf58476d1ce4e5b9 + (x << 6) + (x >> 2)
	x ^= uint64(c) + 0x94d049bb133111eb + (x << 13) + (x >> 7)
	return int64(x)
}

// stream is a splitmix64 PRNG: unlike math/rand sources it costs nothing
// to seed, which matters because content is derived per (lpa, version).
type stream struct{ x uint64 }

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *stream) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// norm draws a standard normal via Box–Muller.
func (s *stream) norm() float64 {
	u1 := s.float64()
	for u1 == 0 {
		u1 = s.float64()
	}
	u2 := s.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (s *stream) fill(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], s.next())
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], s.next())
		copy(p[i:], tail[:len(p)-i])
	}
}

// basePage fills dst with the stable pseudo-random base content of lpa.
func (g *ContentGen) basePage(lpa uint64, dst []byte) {
	st := stream{x: uint64(mix(g.Seed, int64(lpa), 0))}
	st.fill(dst)
}

// NextVersion returns the payload for the next write to lpa and advances
// the per-page version counter.
func (g *ContentGen) NextVersion(lpa uint64) []byte {
	lpa = g.global(lpa)
	v := g.ver[lpa]
	g.ver[lpa] = v + 1
	return g.VersionContent(lpa, v)
}

// VersionContent reconstructs the payload of version v of lpa (pure
// function of generator seed, lpa, and v).
func (g *ContentGen) VersionContent(lpa uint64, v uint64) []byte {
	p := make([]byte, g.PageSize)
	switch g.Mode {
	case ContentZero:
		return p
	case ContentRandom:
		st := stream{x: uint64(mix(g.Seed, int64(lpa), int64(v)+1))}
		st.fill(p)
		return p
	}
	// ContentSimilar.
	g.basePage(lpa, p)
	if v == 0 {
		return p
	}
	st := stream{x: uint64(mix(g.Seed, int64(lpa), int64(v)+1))}
	r := g.MeanRatio + st.norm()*g.StdRatio
	if r < 0.01 {
		r = 0.01
	}
	if r > 0.9 {
		r = 0.9
	}
	// The XOR of two versions carries the sparse sets of both, so each
	// version's sparse set is sized for half the target ratio. Each
	// scattered non-zero byte costs ≈4 bytes after LZF (literal + broken
	// zero-run back-references).
	k := int(r * float64(g.PageSize) / 8)
	if k < 1 {
		k = 1
	}
	for i := 0; i < k; i++ {
		pos := st.intn(g.PageSize)
		p[pos] ^= byte(1 + st.intn(255))
	}
	return p
}

func (g *ContentGen) global(lpa uint64) uint64 { return lpa*g.stride + g.offset }
