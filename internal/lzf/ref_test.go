package lzf

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// compressRef is the pure, table-per-call LZF loop the Compressor was
// derived from, kept frozen as the reference its output is checked against
// (TestCompressorMatchesPure, FuzzCompressorMatchesReference). It seeds
// every other position inside a match and clears a fresh table per call,
// so it shares none of the Compressor's shortcuts. Do not optimise it.
func compressRef(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	var table [hashSize]int32 // entry = position+1; 0 = empty

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
			// One little-endian load serves both the hash (byte-reversed so
			// it equals hash3(src[i], src[i+1], src[i+2])) and the 3-byte
			// candidate comparison below.
			u = binary.LittleEndian.Uint32(src[i:])
			h = ((bits.ReverseBytes32(u) >> 8) * 2654435761) >> (32 - hashLog)
		} else {
			h = hash3(src[i], src[i+1], src[i+2])
		}
		e := table[h]
		table[h] = int32(i + 1)
		if e != 0 {
			cand := int(e) - 1
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
				// Extend eight bytes per step while both sides keep whole
				// words in range; the XOR's trailing zero count pinpoints
				// the first differing byte, so the byte-wise tail only runs
				// when the word loop ran out of room rather than out of
				// match.
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
				// Seed the table with positions inside the match so later
				// data can reference it; a sparse seeding keeps compression
				// fast.
				end := i + mlen
				for j := i + 1; j+minMatch <= end && j+minMatch <= len(src); j += 2 {
					table[hash3(src[j], src[j+1], src[j+2])] = int32(j + 1)
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

// decompressRef is the decoder Decompress was derived from, kept frozen as
// the reference its output and its accept/reject result are checked
// against (FuzzDecompressMatchesReference). It fills every overlapping
// back-reference with doubling copies, zero runs included. Do not optimise
// it.
func decompressRef(dst, src []byte, maxOut int) ([]byte, error) {
	base := len(dst)
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
			dst = append(dst, dst[ref:ref+mlen]...)
			continue
		}
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
