package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
)

// The benchmark owns every generator it uses: a later change to
// internal/trace or internal/bench cannot move the workload. All
// generators are pure functions of the seed.

// rng is splitmix64: tiny, fast, and good enough for address draws and
// page content. The zero seed is valid.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash.Write never fails
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n) by multiply-shift (bias < 2^-32 for the
// n used here).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s using Vose's
// alias method: O(n) set-up, O(1) and branch-light per draw.
type zipf struct {
	prob  []float64
	alias []uint32
}

func newZipf(n int, s float64) *zipf {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	z := &zipf{prob: make([]float64, n), alias: make([]uint32, n)}
	small := make([]uint32, 0, n)
	large := make([]uint32, 0, n)
	for i := range w {
		w[i] = w[i] / sum * float64(n)
		if w[i] < 1 {
			small = append(small, uint32(i))
		} else {
			large = append(large, uint32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		z.prob[s], z.alias[s] = w[s], l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		z.prob[i], z.alias[i] = 1, i
	}
	return z
}

func (z *zipf) draw(r *rng) uint64 {
	i := r.intn(uint64(len(z.prob)))
	if r.float() < z.prob[i] {
		return i
	}
	return uint64(z.alias[i])
}

// scatter maps Zipf ranks onto addresses through a fixed multiplicative
// permutation of [0, n), so the hot head is spread over the address
// space (and therefore over shards, blocks and refcache sets) instead of
// sitting at LPA 0, 1, 2, ….
type scatter struct{ mul, n uint64 }

func newScatter(n uint64) scatter {
	mul := uint64(2654435761)
	for gcd(mul%n, n) != 1 {
		mul += 2
	}
	return scatter{mul: mul % n, n: n}
}

func (s scatter) at(rank uint64) uint64 { return rank * s.mul % s.n }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

const (
	lineages = 512 // distinct page lineages shared across the LPA space
	versions = 8   // pre-generated successive versions per lineage
)

// corpus is the page content of a run: lineages × versions pages, each
// version mutating pageSize/64 bytes of its predecessor, so the delta
// encoder and LZF see realistic small updates instead of noise or zeros.
// Content of (lpa, version v) is page(lpa, v); v counts writes to the
// LPA and wraps at versions.
type corpus struct {
	pages [lineages][versions][]byte
}

func newCorpus(seed uint64, pageSize int) *corpus {
	c := &corpus{}
	r := newRNG(seed, "content")
	arena := make([]byte, lineages*versions*pageSize)
	for l := 0; l < lineages; l++ {
		// A lineage's first version is drawn from a 32-word dictionary
		// with one word in four random: compressible, not trivial.
		var dict [32][16]byte
		for i := range dict {
			binary.LittleEndian.PutUint64(dict[i][:], r.next())
			binary.LittleEndian.PutUint64(dict[i][8:], r.next())
		}
		for v := 0; v < versions; v++ {
			p := arena[(l*versions+v)*pageSize:][:pageSize:pageSize]
			c.pages[l][v] = p
			if v == 0 {
				for off := 0; off < pageSize; off += 16 {
					if r.intn(4) == 0 {
						binary.LittleEndian.PutUint64(dict[0][:], r.next())
						copy(p[off:], dict[0][:])
					} else {
						copy(p[off:], dict[r.intn(32)][:])
					}
				}
				continue
			}
			copy(p, c.pages[l][v-1])
			// Four runs of pageSize/256 bytes: pageSize/64 bytes changed.
			run := pageSize / 256
			for k := 0; k < 4; k++ {
				off := int(r.intn(uint64(pageSize - run + 1)))
				for i := 0; i < run; i++ {
					p[off+i] = byte(r.next())
				}
			}
		}
	}
	return c
}

func (c *corpus) page(lpa uint64, version int) []byte {
	return c.pages[lpa%lineages][version%versions]
}

// servedOp is one op of the served stream. For a write, ver is the
// version being written; for a read it is the version the shadow model
// expects back.
type servedOp struct {
	lpa   uint32
	ver   uint8
	write bool
}

// servedGen generates the served op stream: LPAs Zipf(1.1) over volPages
// behind a scatter permutation, writes and reads alternating. It carries
// the shadow model (cur: the version each LPA holds) from one stream to
// the next, so set-up and the timed phase can use consecutive streams.
// Every LPA starts at version 0 (the prefill).
type servedGen struct {
	r       *rng
	z       *zipf
	sc      scatter
	cur     []uint8
	redraws int // draws the hazard rule rejected, over every stream so far
}

func newServedGen(seed uint64, volPages uint64) *servedGen {
	return &servedGen{r: newRNG(seed, "served"), z: newZipf(int(volPages), 1.1), sc: newScatter(volPages), cur: make([]uint8, volPages)}
}

// writes returns n Zipf writes: the aging part of set-up.
func (g *servedGen) writes(n int) []servedOp {
	ops := make([]servedOp, n)
	for i := range ops {
		lpa := g.sc.at(g.z.draw(g.r))
		g.cur[lpa] = (g.cur[lpa] + 1) % versions
		ops[i] = servedOp{lpa: uint32(lpa), ver: g.cur[lpa], write: true}
	}
	return ops
}

// stream returns the next nOps ops for a client that sends frames of
// opsPerFrame ops and keeps window of them in flight. Even ops are writes
// and odd ops reads, so a 16-op frame is 8 W : 8 R and one-op frames
// alternate.
//
// Hazard rule. A host never has an op outstanding on a block that is
// under write-back by another request — the page cache serves the read and
// holds the second write — so the generator does not issue an LPA that has
// a write in one of the window−1 frames still in flight ahead of this one.
// Such a draw is rejected and the next draw of the same random sequence
// takes its place (a deterministic redraw; redraws counts them). Ops of
// one frame may repeat an LPA: a frame's ops reach a shard's queue in
// order, so their outcome is defined. With window 1 nothing is ever in
// flight and nothing is redrawn.
func (g *servedGen) stream(nOps, opsPerFrame, window int) []servedOp {
	// lastWrite[lpa] is the newest frame that writes lpa, -window if none.
	lastWrite := make([]int32, len(g.cur))
	for i := range lastWrite {
		lastWrite[i] = int32(-window)
	}
	ops := make([]servedOp, nOps)
	for i := range ops {
		frame := int32(i / opsPerFrame)
		lpa := g.sc.at(g.z.draw(g.r))
		for lastWrite[lpa] != frame && lastWrite[lpa] > frame-int32(window) {
			g.redraws++
			lpa = g.sc.at(g.z.draw(g.r))
		}
		write := i%2 == 0
		if write {
			g.cur[lpa] = (g.cur[lpa] + 1) % versions
			lastWrite[lpa] = frame
		}
		ops[i] = servedOp{lpa: uint32(lpa), ver: g.cur[lpa], write: write}
	}
	return ops
}

// digestOps hashes an op stream (the golden tests pin it per seed).
func digestOps(ops []servedOp) uint64 {
	h := fnv.New64a()
	var b [6]byte
	for _, o := range ops {
		binary.LittleEndian.PutUint32(b[:], o.lpa)
		b[4] = o.ver
		b[5] = 0
		if o.write {
			b[5] = 1
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return h.Sum64()
}
