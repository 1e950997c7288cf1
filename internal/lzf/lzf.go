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
// seeds it once per period of a periodic match, tests a long match's
// whole window in one compare and emits the rest of a zero run without a
// probe per chunk, yet emits exactly the bytes of the plain table-per-call
// loop kept in the tests as the reference:
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
				dst = appendMatch(dst, i-cand-1, mlen)
				end := i + mlen
				// A match whose bytes are all zero (its first three are,
				// and so is the rest when its period is 3 or less) and
				// that the zero run outlasts: zeroRun seeds it and emits
				// the rest of the run.
				if end+minMatch <= len(src) && u&0xffffff == 0 && src[end]|src[end+1]|src[end+2] == 0 &&
					(i-cand <= minMatch || isZero(src[i+minMatch:end])) {
					i, dst = c.zeroRun(dst, src, i, mlen, tag)
					litStart = i
					continue
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

// zeroRun emits the rest of a zero run after the match of mlen zero bytes
// at i that Compress has just emitted, in place of that match's seeding,
// and returns where the run's chunks end with the extended dst. Every
// position the match would seed hashes three zero bytes, as the probe at
// i did, so only the "000" bucket changes, to the match's last seed. The
// reference loop then matches each next chunk against that seed, 3 or 4
// bytes back: the bytes between are zero, so the match extends exactly as
// far as the run does, up to maxMatch, and its seeds again go to that
// bucket alone. zeroRun emits the same chunks while minMatch or more bytes
// of the run are left, with no probe, compare or seeding, and writes the
// bucket once, as the last chunk's seeding leaves it.
func (c *Compressor) zeroRun(dst, src []byte, i, mlen int, tag uint64) (int, []byte) {
	last := lastSeed(i, mlen)
	i += mlen
	for {
		n := zeroLen(src[i : i+min(maxMatch, len(src)-i)])
		if n < minMatch {
			break
		}
		dst = appendMatch(dst, i-last-1, n)
		last = lastSeed(i, n)
		i += n
		if n < maxMatch {
			break
		}
	}
	c.table[hash3(0, 0, 0)] = tag | uint64(last+1)
	return i, dst
}

// lastSeed is the position of the last table write a match of length mlen
// at i makes: its last seed, i+1, i+3, ... up to i+mlen-minMatch, or the
// probe at i when the match is too short to seed.
func lastSeed(i, mlen int) int {
	if mlen <= minMatch {
		return i
	}
	return i + 1 + (mlen-minMatch-1)&^1
}

// appendMatch appends the back-reference token of a match of length mlen
// whose source starts off+1 bytes back.
func appendMatch(dst []byte, off, mlen int) []byte {
	l := mlen - 2
	if l < 7 {
		return append(dst, byte(l<<5)|byte(off>>8), byte(off))
	}
	return append(dst, byte(7<<5)|byte(off>>8), byte(l-7), byte(off))
}

// isZero reports whether every byte of p is zero.
func isZero(p []byte) bool { return zeroLen(p) == len(p) }

// zeroLen returns the number of leading zero bytes of p: 32 bytes per
// step while they are all zero, then a word and a byte at a time to the
// first nonzero one.
func zeroLen(p []byte) int {
	q := p
	for len(q) >= 32 && binary.LittleEndian.Uint64(q)|binary.LittleEndian.Uint64(q[8:])|
		binary.LittleEndian.Uint64(q[16:])|binary.LittleEndian.Uint64(q[24:]) == 0 {
		q = q[32:]
	}
	for len(q) >= 8 {
		if x := binary.LittleEndian.Uint64(q); x != 0 {
			return len(p) - len(q) + bits.TrailingZeros64(x)>>3
		}
		q = q[8:]
	}
	for len(q) > 0 && q[0] == 0 {
		q = q[1:]
	}
	return len(p) - len(q)
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
		if isZero(dst[ref:]) {
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

// XORScratch is ApplyXOR's reusable staging: the segments of the residual
// it parsed. The zero value is ready to use; an XORScratch is not safe for
// concurrent use.
type XORScratch struct {
	segs []segment
}

// segment is a stretch of a residual that repeats payload bytes: the n
// residual bytes at output offset out are src[in:in+n], and the first and
// the last of them are nonzero. Outside its segments a residual is zero.
type segment struct{ out, in, n int }

// ApplyXOR XORs the residual that src, an LZF payload, decodes to onto
// page, as Decompress followed by an XOR would, when the residual is
// exactly len(page) bytes; ok reports that it was. Every nonzero residual
// byte is a literal byte, or one a match repeats from an earlier output
// offset, so the residual is a list of segments of payload bytes over
// zeros. The parse keeps each literal run as a segment, with its leading
// and trailing zeros left out. A match whose source holds no segment (a
// zero run, by far the most common) costs nothing more; one whose source
// does turns each segment piece it copies into a new segment at the
// match's offset, from the same payload bytes, and copied reports it. The
// apply then XORs each segment onto the page: nothing is decoded, and
// nothing but the segments is written.
//
// ApplyXOR parses the whole payload before it writes to page. A payload
// that Decompress rejects, or that decodes to another length, leaves page
// untouched, and the caller decompresses it for the error.
func ApplyXOR(page, src []byte, s *XORScratch) (copied, ok bool) {
	if copied, ok = s.parse(src, len(page)); !ok {
		return false, false
	}
	for _, g := range s.segs {
		xorOnto(page[g.out:g.out+g.n], src[g.in:g.in+g.n])
	}
	return copied, true
}

// parse parses src as Decompress would with an output bound of size into
// s.segs, the segments of the residual it decodes to, in output order.
// copied reports a match that repeats nonzero bytes; ok is false when src
// does not decode, or not to exactly size bytes.
func (s *XORScratch) parse(src []byte, size int) (copied, ok bool) {
	segs := s.segs[:0]
	last := 0 // where the newest segment ends
	i, o := 0, 0
	ok = true
	for i < len(src) {
		ctrl := src[i]
		i++
		if ctrl < 0x20 {
			n := int(ctrl) + 1
			if i+n > len(src) || o+n > size {
				ok = false
				break
			}
			if g, nz := trim(o, i, n, src); nz {
				segs, last = append(segs, g), g.out+g.n
			}
			o += n
			i += n
			continue
		}
		mlen := int(ctrl >> 5)
		if mlen == 7 {
			if i >= len(src) {
				ok = false
				break
			}
			mlen += int(src[i])
			i++
		}
		mlen += 2
		if i >= len(src) {
			ok = false
			break
		}
		ref := o - (int(ctrl&0x1f)<<8 | int(src[i])) - 1
		i++
		if ref < 0 || o+mlen > size {
			ok = false
			break
		}
		// The match repeats the period [ref, o), cut to mlen bytes (a
		// source that ends behind o is one period, cut). Its source,
		// [ref, end), is zero but for the segments that end after ref and
		// start before end, and segments lie in output order. So a chunk
		// of a zero run, whose source starts after the newest segment,
		// costs one test, and so does the run's first chunk after a
		// literal run, whose source is the zeros just before that run:
		// the literal run starts at or after end, and the segment before
		// it ends before ref. Any other match finds its first segment by
		// a binary search.
		if last <= ref {
			o += mlen
			continue
		}
		hi, end := len(segs), min(ref+mlen, o)
		k := hi
		for k > 0 && hi-k < 2 && segs[k-1].out >= end {
			k--
		}
		if k == 0 || segs[k-1].out+segs[k-1].n <= ref {
			o += mlen
			continue
		}
		k = firstEndingAfter(segs[:hi], ref)
		period := o - ref
		for base := 0; base < mlen; base += period {
			end := ref + min(period, mlen-base)
			for _, g := range segs[k:hi] {
				a, b := max(g.out, ref), min(g.out+g.n, end)
				if a >= b {
					break
				}
				if g, nz := trim(o+base+a-ref, g.in+a-g.out, b-a, src); nz {
					segs, last, copied = append(segs, g), g.out+g.n, true
				}
			}
		}
		o += mlen
	}
	s.segs = segs
	return copied, ok && o == size
}

// firstEndingAfter returns the index of the first of segs, in output
// order, that ends after ref; the last one must. It halves the range
// without a branch on the comparison, which a far source would
// mispredict at every step.
func firstEndingAfter(segs []segment, ref int) int {
	k, n := 0, len(segs)
	for n > 1 {
		half := n >> 1
		if g := &segs[k+half-1]; g.out+g.n <= ref {
			k += half
		}
		n -= half
	}
	return k
}

// xorOnto XORs q onto p, which is as long: a word at a time, then a byte
// at a time. A segment is a literal run or a piece of one, too short for
// subtle.XORBytes' call to pay.
func xorOnto(p, q []byte) {
	for len(p) >= 8 && len(q) >= 8 {
		binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)^binary.LittleEndian.Uint64(q))
		p, q = p[8:], q[8:]
	}
	for j := range p {
		p[j] ^= q[j]
	}
}

// trim is the segment of the n residual bytes at output offset out that
// repeat src[in:in+n], with their leading and trailing zeros left out; nz
// is false when they are all zero.
func trim(out, in, n int, src []byte) (g segment, nz bool) {
	for n > 0 && src[in] == 0 {
		out, in, n = out+1, in+1, n-1
	}
	for n > 0 && src[in+n-1] == 0 {
		n--
	}
	return segment{out: out, in: in, n: n}, n > 0
}
