// Package delta implements TimeSSD's delta compression engine (§3.6).
//
// When an obsolete data version is selected for compression, the latest
// version mapped to the same LPA is taken as the reference; the obsolete
// version is represented by a compressed delta (XOR difference against the
// reference, squeezed with LZF). Deltas are far smaller than pages for
// workloads with content locality, which is what lets TimeSSD retain weeks
// of history.
//
// Each delta carries the metadata the paper lists: the LPA it belongs to,
// the back-pointer to the previous version's physical page, its own write
// timestamp, and the write timestamp of the reference version (needed to
// pick the right reference at decompression time). Deltas are coalesced
// into page-sized delta pages with a header recording the number of deltas,
// their byte offsets, and their metadata (§3.7).
package delta

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"almanac/internal/lzf"
	"almanac/internal/vclock"
)

// Encoding identifies how a delta payload encodes the obsolete version.
type Encoding uint8

const (
	// EncXORLZF is the normal case: payload = LZF(old XOR reference).
	EncXORLZF Encoding = iota
	// EncRawLZF stores LZF(old) without a reference; used when the version
	// chain has no newer reference (e.g. the version was trimmed).
	EncRawLZF
	// EncRaw stores the old version verbatim; fallback when compression
	// does not pay (incompressible content).
	EncRaw
)

// Delta is one compressed obsolete version of a logical page.
type Delta struct {
	LPA      uint64      // logical page this version belongs to
	BackPtr  uint64      // PPA of the previous (older) version in the chain
	TS       vclock.Time // write timestamp of this version
	RefTS    vclock.Time // write timestamp of the reference version
	Enc      Encoding
	BackSlot uint16 // the previous version's slot in the BackPtr page, +1; 0 = unknown
	Payload  []byte
}

// ErrCorruptPage is returned when a delta page fails to parse.
var ErrCorruptPage = errors.New("delta: corrupt delta page")

// Encoder is a device's delta encoder: the LZF compressor and the page an
// XOR residual is staged in, both reused across calls, as Scratch is on
// the decode side. The zero value is ready to use; an Encoder is not safe
// for concurrent use.
type Encoder struct {
	lzc      lzf.Compressor
	residual []byte
}

// Encode compresses old against ref (both pageSize long), appends the
// chosen payload to dst, and returns the encoding plus the extended slice.
// ref may be nil, in which case the old version is self-compressed
// (EncRawLZF or EncRaw). Callers reuse dst.
func (e *Encoder) Encode(dst, old, ref []byte) (Encoding, []byte) {
	if ref != nil && len(ref) != len(old) {
		panic("delta: reference and version sizes differ")
	}
	base := len(dst)
	src, enc := old, EncRawLZF
	if ref != nil {
		if cap(e.residual) < len(old) {
			e.residual = make([]byte, len(old))
		}
		src, enc = e.residual[:len(old)], EncXORLZF
		subtle.XORBytes(src, old, ref)
	}
	dst = e.lzc.Compress(dst, src)
	if len(dst)-base >= len(old) {
		// Compression did not pay; store verbatim.
		return EncRaw, append(dst[:base], old...)
	}
	return enc, dst
}

// Scratch is DecodeOnto's reusable staging. The zero value is ready to
// use; a Scratch is not safe for concurrent use (a device keeps one).
type Scratch struct {
	xor lzf.XORScratch

	applied, copied int // XOR residuals applied, and those with a match repeating nonzero bytes
}

// Decodes returns how many XOR residuals were applied through s, and how
// many of them had a match that repeats nonzero bytes.
func (s *Scratch) Decodes() (applied, copied int) { return s.applied, s.copied }

// DecodeOnto reconstructs the obsolete version from payload into page,
// whose length is the page size. For EncXORLZF, page holds the reference
// on entry (the version whose write timestamp is the delta's RefTS) and
// the version on exit: the residual is applied onto it in one pass over
// its nonzero bytes (lzf.ApplyXOR). EncRawLZF and EncRaw decode straight
// into page, ignoring what it held. On an error an XOR reference is left
// as it was, and the page of any other encoding holds no version.
func DecodeOnto(page []byte, enc Encoding, payload []byte, s *Scratch) error {
	pageSize := len(page)
	switch enc {
	case EncRaw:
		if len(payload) != pageSize {
			return fmt.Errorf("delta: raw payload is %d bytes, want %d", len(payload), pageSize)
		}
		copy(page, payload)
		return nil
	case EncRawLZF:
		out, err := lzf.Decompress(page[:0], payload, pageSize)
		if err != nil {
			return err
		}
		return checkDecoded(len(out), pageSize)
	case EncXORLZF:
		copied, ok := lzf.ApplyXOR(page, payload, &s.xor)
		if ok {
			s.applied++
			if copied {
				s.copied++
			}
			return nil
		}
		// ApplyXOR refuses what Decompress rejects or decodes to another
		// length: decompress it for the error.
		res, err := lzf.Decompress(nil, payload, pageSize)
		if err != nil {
			return err
		}
		return checkDecoded(len(res), pageSize)
	default:
		return fmt.Errorf("delta: unknown encoding %d", enc)
	}
}

// checkDecoded is the error for a payload that decoded to n bytes of a
// pageSize-byte page, or nil when n is the page size.
func checkDecoded(n, pageSize int) error {
	if n != pageSize {
		return fmt.Errorf("delta: decoded %d bytes, want %d", n, pageSize)
	}
	return nil
}

// Size returns the number of bytes d occupies inside a delta page,
// including its per-delta header entry.
func (d *Delta) Size() int { return entrySize + len(d.Payload) }

// Delta page layout:
//
//	u16 count
//	count × entry { u32 off, u16 len, u16 backSlot, u8 enc, u64 lpa, u64 backptr, i64 ts, i64 refts }
//	payload bytes...
//
// len and backSlot share the four bytes that used to be a u32 len whose
// upper half was always zero (a payload is shorter than a page, and a page
// is at most MaxPageSize), so a page written before back-slots existed
// parses as "slot unknown" everywhere.
const (
	headerSize = 2
	entrySize  = 4 + 2 + 2 + 1 + 8 + 8 + 8 + 8

	// MaxPageSize is the largest flash page the entry encoding can
	// describe: payload lengths and slot numbers are 16-bit.
	MaxPageSize = 1 << 16
)

// PackPage serialises deltas into buf, one whole flash page (its length is
// the page size), and returns the number of leading deltas it packed. It
// writes every byte of buf, zeroing what the deltas leave free, so a
// reused page packs the same image a fresh one does. At least one delta
// must fit; if the first delta alone exceeds the page an error is returned
// (callers size deltas ≤ page size).
func PackPage(buf []byte, deltas []*Delta) (int, error) {
	if len(deltas) == 0 {
		return 0, errors.New("delta: no deltas to pack")
	}
	if len(buf) > MaxPageSize {
		return 0, fmt.Errorf("delta: page size %d exceeds the %d the entry encoding can describe", len(buf), MaxPageSize)
	}
	n := 0
	used := headerSize
	for _, d := range deltas {
		if used+d.Size() > len(buf) {
			break
		}
		used += d.Size()
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("delta: first delta (%d B) exceeds page size %d", deltas[0].Size(), len(buf))
	}
	binary.LittleEndian.PutUint16(buf[0:2], uint16(n))
	off := headerSize + n*entrySize
	pos := headerSize
	for _, d := range deltas[:n] {
		binary.LittleEndian.PutUint32(buf[pos:], uint32(off))
		binary.LittleEndian.PutUint16(buf[pos+4:], uint16(len(d.Payload)))
		binary.LittleEndian.PutUint16(buf[pos+6:], d.BackSlot)
		buf[pos+8] = byte(d.Enc)
		binary.LittleEndian.PutUint64(buf[pos+9:], d.LPA)
		binary.LittleEndian.PutUint64(buf[pos+17:], d.BackPtr)
		binary.LittleEndian.PutUint64(buf[pos+25:], uint64(d.TS))
		binary.LittleEndian.PutUint64(buf[pos+33:], uint64(d.RefTS))
		copy(buf[off:], d.Payload)
		off += len(d.Payload)
		pos += entrySize
	}
	clear(buf[off:])
	return n, nil
}

// Page is a read-only view of a packed delta page: the entry count checked
// against the buffer, nothing parsed and nothing copied. Entries are
// addressed by their index in the header — the slot back-pointers carry.
// The view is valid while buf is (flash page images are stable until their
// block is erased).
type Page struct {
	buf []byte
	n   int
}

// OpenPage checks buf's header and returns the view over it.
func OpenPage(buf []byte) (Page, error) {
	if len(buf) < headerSize {
		return Page{}, ErrCorruptPage
	}
	n := int(binary.LittleEndian.Uint16(buf[0:2]))
	if headerSize+n*entrySize > len(buf) {
		return Page{}, fmt.Errorf("%w: %d entries do not fit", ErrCorruptPage, n)
	}
	return Page{buf: buf, n: n}, nil
}

// Len returns the number of entries in the page.
func (p Page) Len() int { return p.n }

// Key returns the logical page and write timestamp of entry i.
func (p Page) Key(i int) (lpa uint64, ts vclock.Time) {
	e := p.buf[headerSize+i*entrySize:]
	return binary.LittleEndian.Uint64(e[9:]), vclock.Time(binary.LittleEndian.Uint64(e[25:]))
}

// Link returns where entry i's chain continues: the page holding the
// previous version and that version's slot there (slot+1; 0 = unknown).
func (p Page) Link(i int) (backPtr uint64, backSlot uint16) {
	e := p.buf[headerSize+i*entrySize:]
	return binary.LittleEndian.Uint64(e[17:]), binary.LittleEndian.Uint16(e[6:])
}

// Delta fills d from entry i. d.Payload aliases the page buffer; an entry
// whose payload does not lie inside the page's payload area is corrupt.
func (p Page) Delta(i int, d *Delta) error {
	e := p.buf[headerSize+i*entrySize:]
	off := int(binary.LittleEndian.Uint32(e))
	end := off + int(binary.LittleEndian.Uint16(e[4:]))
	if off < headerSize+p.n*entrySize || end > len(p.buf) {
		return fmt.Errorf("%w: entry %d payload out of range", ErrCorruptPage, i)
	}
	*d = Delta{
		Enc:     Encoding(e[8]),
		RefTS:   vclock.Time(binary.LittleEndian.Uint64(e[33:])),
		Payload: p.buf[off:end:end],
	}
	d.LPA, d.TS = p.Key(i)
	d.BackPtr, d.BackSlot = p.Link(i)
	return nil
}

// Find scans the header for the newest entry of lpa written strictly before
// `before` and returns its index, or -1.
func (p Page) Find(lpa uint64, before vclock.Time) int {
	best := -1
	var bestTS vclock.Time
	for i := 0; i < p.n; i++ {
		if l, ts := p.Key(i); l == lpa && ts < before && (best < 0 || ts > bestTS) {
			best, bestTS = i, ts
		}
	}
	return best
}

// Hop is one step of a version-chain walk into this page: the index of
// lpa's newest entry written strictly before `before` (the previous hop's
// timestamp), or -1. slot is where the back-pointer that led here says the
// entry sits (slot+1; 0 = unknown). It is a hint, never trusted: the entry
// there is taken only if it is lpa's and older than `before`; anything else
// — no slot, a slot past the header, another LPA's entry, a timestamp that
// does not descend — falls back to Find. A writer packs at most one delta
// per LPA into a page, so on every page a device wrote, an entry that
// verifies is the one Find returns; on any page at all the walk still sees
// only lpa's versions in strictly descending time.
func (p Page) Hop(slot uint16, lpa uint64, before vclock.Time) int {
	if i := int(slot) - 1; uint(i) < uint(p.n) {
		if l, ts := p.Key(i); l == lpa && ts < before {
			return i
		}
	}
	return p.Find(lpa, before)
}

// Buffer coalesces deltas until a page fills (§3.6's "delta buffers").
// It is a plain accumulator; the owner decides when to flush.
type Buffer struct {
	pageSize int
	deltas   []*Delta
	used     int
	page     []byte // Flush's output: allocated by the first Flush, reused by the rest
}

// NewBuffer returns a delta buffer for pageSize-byte flash pages.
func NewBuffer(pageSize int) *Buffer {
	return &Buffer{pageSize: pageSize, used: headerSize}
}

// Fits reports whether d can be added without exceeding one page.
func (b *Buffer) Fits(d *Delta) bool { return b.used+d.Size() <= b.pageSize }

// Add appends d to the buffer. It returns false if d does not fit (the
// caller should Flush first).
func (b *Buffer) Add(d *Delta) bool {
	if !b.Fits(d) {
		return false
	}
	b.deltas = append(b.deltas, d)
	b.used += d.Size()
	return true
}

// Empty reports whether the buffer holds no deltas.
func (b *Buffer) Empty() bool { return len(b.deltas) == 0 }

// Flush serialises the buffered deltas into a page image and resets the
// buffer. It returns nil if the buffer is empty. The image is the buffer's
// own page, which the next Flush overwrites: program it (a flash program
// copies) before flushing again.
func (b *Buffer) Flush() ([]byte, []*Delta, error) {
	if len(b.deltas) == 0 {
		return nil, nil, nil
	}
	if b.page == nil {
		b.page = make([]byte, b.pageSize)
	}
	n, err := PackPage(b.page, b.deltas)
	if err != nil {
		return nil, nil, err
	}
	if n != len(b.deltas) {
		return nil, nil, fmt.Errorf("delta: buffer overflow, packed %d of %d", n, len(b.deltas))
	}
	flushed := b.deltas
	b.deltas = nil
	b.used = headerSize
	return b.page, flushed, nil
}
