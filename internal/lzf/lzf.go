// Package lzf implements an LZF-style byte compressor.
//
// TimeSSD compresses retained data versions with LZF because of its speed
// (§4 of the paper, citing LibLZF). This is a from-scratch implementation of
// the same format family: a greedy LZ77 coder with a tiny fixed hash table,
// literal runs of up to 32 bytes, and back-references of up to 264 bytes
// within an 8 KiB window. It favours speed over ratio, exactly the trade-off
// a firmware compressor makes.
//
// Compressor is the one encoder. It keeps its match table across calls,
// seeds it once per period of a periodic match and tests a long match's
// whole window in one compare, yet emits exactly the bytes of the plain
// table-per-call loop kept in the tests as the reference:
// compressed payloads land on simulated flash, so every layout and
// retention number the simulator reports depends on them.
//
// Encoded stream format (identical to classic LZF):
//
//	ctrl < 0x20:  literal run, ctrl+1 literal bytes follow.
//	ctrl >= 0x20: back-reference. len3 = ctrl>>5; if len3 == 7 an extension
//	              byte follows and the match length is 7+ext+2, otherwise
//	              len3+2. The reference offset is ((ctrl&0x1f)<<8 | low)+1
//	              bytes back from the current output position.
package lzf

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const (
	hashLog   = 13
	hashSize  = 1 << hashLog
	maxOff    = 1 << 13 // 8192: max back-reference distance
	maxMatch  = 264     // 7 + 255 + 2
	minMatch  = 3
	maxLitRun = 32
)

// ErrCorrupt is returned by Decompress when the input is not a valid LZF
// stream or does not fit the destination bound.
var ErrCorrupt = errors.New("lzf: corrupt input")

// ErrTooLarge is returned by Decompress when the decoded output would exceed
// the caller-provided maximum.
var ErrTooLarge = errors.New("lzf: output exceeds limit")

func hash3(a, b, c byte) uint32 {
	h := uint32(a)<<16 | uint32(b)<<8 | uint32(c)
	// Fibonacci-style multiplicative hash, folded to hashLog bits.
	return (h * 2654435761) >> (32 - hashLog)
}

// hashAt is hash3(src[j], src[j+1], src[j+2]), from one little-endian load
// when four bytes are in range (byte-reversed so the values agree).
func hashAt(src []byte, j int) uint32 {
	if j+4 <= len(src) {
		u := binary.LittleEndian.Uint32(src[j:])
		return ((bits.ReverseBytes32(u) >> 8) * 2654435761) >> (32 - hashLog)
	}
	return hash3(src[j], src[j+1], src[j+2])
}

// Compressor is the LZF encoder. It carries its match table across calls
// and tags each entry with a per-call generation: entries written by
// earlier calls read as empty, so no 32 KiB clear is paid per page and the
// output is a pure function of src (the same positions are visible at the
// same probes as with a fresh table).
//
// The zero value is ready to use. A Compressor is NOT safe for concurrent
// use; give each goroutine (in the simulator: each device) its own.
type Compressor struct {
	gen   uint32
	table [hashSize]uint64 // gen<<32 | position+1; other-generation tags read as empty
}

// Compress appends the LZF encoding of src to dst and returns the extended
// slice. The output on incompressible data can be slightly larger than the
// input (worst case: one control byte per 32 literals).
func (c *Compressor) Compress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	c.gen++
	if c.gen == 0 {
		// Generation wrapped: stale tags from 1<<32 calls ago would read as
		// current. One real clear per 4 billion calls.
		c.table = [hashSize]uint64{}
		c.gen = 1
	}
	tag := uint64(c.gen) << 32

	litStart := 0 // start of the pending literal run
	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLitRun {
				n = maxLitRun
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}

	i := 0
	for i+minMatch <= len(src) {
		var h uint32
		var u uint32
		wide := i+4 <= len(src)
		if wide {
			// One little-endian load serves both the hash and the 3-byte
			// candidate comparison below.
			u = binary.LittleEndian.Uint32(src[i:])
			h = ((bits.ReverseBytes32(u) >> 8) * 2654435761) >> (32 - hashLog)
		} else {
			h = hash3(src[i], src[i+1], src[i+2])
		}
		e := c.table[h]
		c.table[h] = tag | uint64(i+1)
		if e>>32 == uint64(c.gen) {
			cand := int(uint32(e)) - 1
			var hit bool
			if wide {
				// cand < i and i+4 <= len(src), so the 4-byte load at cand
				// is in bounds; the mask keeps only the minMatch prefix.
				hit = i-cand <= maxOff && (binary.LittleEndian.Uint32(src[cand:])^u)&0xffffff == 0
			} else {
				hit = i-cand <= maxOff &&
					src[cand] == src[i] && src[cand+1] == src[i+1] && src[cand+2] == src[i+2]
			}
			if hit {
				// Extend the match to its first differing byte or to
				// limit, in up to four steps, each taken only while the
				// last found no difference: a byte probe, one word, the
				// whole rest of the window, and a word loop with a byte
				// tail.
				mlen := minMatch
				limit := len(src) - i
				if limit > maxMatch {
					limit = maxMatch
				}
				exact := false
				// Short matches are common on low-locality content; one
				// byte probe avoids paying two word loads to learn the
				// match ends at minMatch.
				if mlen < limit && src[cand+mlen] != src[i+mlen] {
					exact = true
				}
				// After a matching first word, compare the rest of the
				// window at once (a vectorised memequal): the long zero
				// runs of an XOR residual match to limit, and one compare
				// replaces ~32 word steps. If it is equal, the word loop
				// and its tail would have stopped at limit too; if not,
				// the loop walks on from the first word as it would have.
				// Either way mlen, and every output byte, is unchanged.
				// The full first word is the guard: a match that ends
				// within a few bytes never pays for a call that fails at
				// once.
				if !exact && mlen+8 <= limit {
					x := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[i+mlen:])
					if x != 0 {
						mlen += bits.TrailingZeros64(x) >> 3
						exact = true
					} else {
						mlen += 8
						if bytes.Equal(src[cand+mlen:cand+limit], src[i+mlen:i+limit]) {
							mlen = limit
							exact = true
						}
					}
				}
				// Eight bytes per step while both sides keep whole words in
				// range; the XOR's trailing zero count pinpoints the first
				// differing byte, so the byte-wise tail only runs when the
				// word loop ran out of room rather than out of match.
				for !exact && mlen+8 <= limit {
					x := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[i+mlen:])
					if x != 0 {
						mlen += bits.TrailingZeros64(x) >> 3
						exact = true
						break
					}
					mlen += 8
				}
				if !exact {
					for mlen < limit && src[cand+mlen] == src[i+mlen] {
						mlen++
					}
				}
				flushLits(i)
				off := i - cand - 1
				l := mlen - 2
				if l < 7 {
					dst = append(dst, byte(l<<5)|byte(off>>8), byte(off))
				} else {
					dst = append(dst, byte(7<<5)|byte(off>>8), byte(l-7), byte(off))
				}
				// Seed the table with every other position inside the match
				// so later data can reference it. Only the table state after
				// this loop matters (nothing probes it in between), and the
				// match is periodic: src[k] == src[k-q] for k in [i, end),
				// q = i-cand, so the window at j equals the window at j+q
				// while j+q+minMatch <= end. With span = lcm(2, q) — a
				// multiple of the stride — the seed at j+span rewrites the
				// bucket of the seed at j with a later position, so no seed
				// that has a successor span ahead can survive the loop: the
				// last write to every bucket lies in the final span/2 seeds.
				// Starting there leaves the table, and so every later byte
				// of output, exactly as seeding them all would. On an XOR
				// residual q is 1-4 and this skips ~130 hashes per zero run.
				end := i + mlen
				j := i + 1
				if span := (i - cand) << ((i - cand) & 1); j+span+minMatch <= end {
					j = j + (end-minMatch-j)&^1 - span + 2
				}
				for ; j+minMatch <= end; j += 2 {
					c.table[hashAt(src, j)] = tag | uint64(j+1)
				}
				i = end
				litStart = i
				continue
			}
		}
		i++
	}
	flushLits(len(src))
	return dst
}

// Decompress appends the decoding of src to dst and returns the extended
// slice. maxOut bounds the total number of decoded bytes (not counting what
// is already in dst); pass the known original size, or a generous cap.
func Decompress(dst, src []byte, maxOut int) ([]byte, error) {
	base := len(dst)
	// Grow once up front: every append below then extends in place, and the
	// bulk copies never trigger a mid-copy reallocation.
	if need := base + maxOut; cap(dst) < need {
		grown := make([]byte, base, need)
		copy(grown, dst)
		dst = grown
	}
	i := 0
	for i < len(src) {
		ctrl := src[i]
		i++
		if ctrl < 0x20 { // literal run
			n := int(ctrl) + 1
			if i+n > len(src) {
				return dst, fmt.Errorf("%w: literal run past end", ErrCorrupt)
			}
			if len(dst)-base+n > maxOut {
				return dst, ErrTooLarge
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		mlen := int(ctrl >> 5)
		if mlen == 7 {
			if i >= len(src) {
				return dst, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
			}
			mlen += int(src[i])
			i++
		}
		mlen += 2
		if i >= len(src) {
			return dst, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		off := int(ctrl&0x1f)<<8 | int(src[i])
		i++
		ref := len(dst) - off - 1
		if ref < base {
			return dst, fmt.Errorf("%w: reference before window", ErrCorrupt)
		}
		if len(dst)-base+mlen > maxOut {
			return dst, ErrTooLarge
		}
		if ref+mlen <= len(dst) {
			// Non-overlapping reference: one bulk copy.
			dst = append(dst, dst[ref:ref+mlen]...)
			continue
		}
		// Overlapping reference: the copy repeats the period-(off+1)
		// pattern ending at the write position (run-length encoding uses
		// off=0). On an XOR residual that period is almost always zeros,
		// and a zero run is one clear of the extended tail (the bound
		// check above keeps it within the capacity grown up front).
		if allZero(dst[ref:]) {
			n := len(dst)
			dst = dst[:n+mlen]
			clear(dst[n:])
			continue
		}
		// Any other period: each bulk append doubles the materialised
		// pattern, so a long run costs O(log n) memmoves instead of n byte
		// stores.
		for mlen > 0 {
			chunk := len(dst) - ref
			if chunk > mlen {
				chunk = mlen
			}
			dst = append(dst, dst[ref:ref+chunk]...)
			mlen -= chunk
		}
	}
	return dst, nil
}

// allZero reports whether every byte of p is zero.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// XORScratch is ApplyXOR's reusable staging: the literal runs of the
// payload it validated, kept for the pass that applies them. The zero
// value is ready to use; an XORScratch is not safe for concurrent use.
type XORScratch struct {
	lits []litRun
}

// litRun is one literal run of a payload: n bytes at src[in:] that decode
// to output offset out.
type litRun struct{ out, in, n int }

// ApplyXOR XORs the residual that src, an LZF payload, decodes to onto
// page, as Decompress followed by an XOR would, when the residual is
// exactly len(page) bytes and every match in src copies only zero bytes.
// The residual's nonzero bytes are then all literals, so applying it costs
// one pass over the literals, not a decode, an XOR and a clear of the
// whole page. The residual of two similar versions is mostly zero runs
// and a few literals, which is the case this serves.
//
// ApplyXOR checks the whole payload before it writes a byte. For any other
// payload it reports false and leaves page untouched: one that Decompress
// rejects or that decodes to another length (the caller's two-pass decode
// then reports the error), or one with a match that copies a nonzero byte.
// s carries the literal runs from the check to the apply.
func ApplyXOR(page, src []byte, s *XORScratch) bool {
	lits, ok := xorLits(s.lits[:0], src, len(page))
	s.lits = lits
	if !ok {
		return false
	}
	for _, r := range lits {
		subtle.XORBytes(page[r.out:r.out+r.n], page[r.out:r.out+r.n], src[r.in:r.in+r.n])
	}
	return true
}

// xorLits parses src as Decompress would with an output bound of size,
// appending each literal run to lits. It reports whether src decodes to
// exactly size bytes and every match copies only zero bytes.
func xorLits(lits []litRun, src []byte, size int) ([]litRun, bool) {
	o, i := 0, 0
	for i < len(src) {
		ctrl := src[i]
		i++
		if ctrl < 0x20 {
			n := int(ctrl) + 1
			if i+n > len(src) || o+n > size {
				return lits, false
			}
			lits = append(lits, litRun{out: o, in: i, n: n})
			o += n
			i += n
			continue
		}
		mlen := int(ctrl >> 5)
		if mlen == 7 {
			if i >= len(src) {
				return lits, false
			}
			mlen += int(src[i])
			i++
		}
		mlen += 2
		if i >= len(src) {
			return lits, false
		}
		ref := o - (int(ctrl&0x1f)<<8 | int(src[i])) - 1
		i++
		if ref < 0 || o+mlen > size {
			return lits, false
		}
		// A match copies [ref, ref+mlen) when that lies behind the write
		// position, and otherwise repeats the period [ref, o).
		if !zeroSpan(lits, src, ref, min(ref+mlen, o)) {
			return lits, false
		}
		o += mlen
	}
	return lits, o == size
}

// zeroSpan reports whether output bytes [a, b) are all zero, given that
// every output byte outside the literal runs lits (ascending, disjoint) is
// zero: it reads the literal bytes the span covers, newest run first, and
// stops at the first run that ends before a.
func zeroSpan(lits []litRun, src []byte, a, b int) bool {
	for k := len(lits) - 1; k >= 0; k-- {
		r := lits[k]
		if r.out+r.n <= a {
			return true
		}
		lo, hi := max(a, r.out), min(b, r.out+r.n)
		if lo < hi && !allZero(src[r.in+lo-r.out:r.in+hi-r.out]) {
			return false
		}
	}
	return true
}
