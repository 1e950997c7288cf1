package flash

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"almanac/internal/vclock"
)

// Device image format: everything the flash medium physically holds —
// geometry, per-block erase counts and write pointers, and each programmed
// page's OOB + content. RAM-only FTL state is deliberately absent: a
// loaded image is brought up through the firmware's rebuild path (see
// core.Rebuild), exactly like an SSD after power loss.
//
// Layout (little endian):
//
//	magic "ALMIMG01" (8 bytes)
//	geometry: 6×u32 (channels, chips/ch, planes, blocks/plane, pages/block, page size)
//	latencies: 3×i64 (read, program, erase, ns)
//	stats: 3×i64 (reads, programs, erases)
//	per block: u32 eraseCount, u32 writePtr,
//	  then writePtr × { u8 kind, u64 lpa, u64 backptr, i64 ts,
//	                    u32 dataLen, data… }
const imageMagic = "ALMIMG01"

// maxImagePages bounds the pages an image may claim. Every page costs 36 B
// of metadata (its length and OOB) on the Go heap whatever its size, so the
// byte cap alone admits a header of 2^30 one-byte pages asking for 36 GiB
// of it. 2^24 is the byte cap's page count at 4 KiB pages.
const maxImagePages = 1 << 24

// ErrBadImage is returned when an image fails to parse.
var ErrBadImage = errors.New("flash: bad device image")

// WriteImage serialises the array. The writer is buffered internally.
func (a *Array) WriteImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	var scratch [8]byte
	u32 := func(v uint32) error {
		le.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	i64 := func(v int64) error {
		le.PutUint64(scratch[:], uint64(v))
		_, err := bw.Write(scratch[:])
		return err
	}
	geo := []uint32{
		uint32(a.cfg.Channels), uint32(a.cfg.ChipsPerChannel), uint32(a.cfg.PlanesPerChip),
		uint32(a.cfg.BlocksPerPlane), uint32(a.cfg.PagesPerBlock), uint32(a.cfg.PageSize),
	}
	for _, g := range geo {
		if err := u32(g); err != nil {
			return err
		}
	}
	for _, d := range []int64{int64(a.cfg.ReadLatency), int64(a.cfg.ProgLatency), int64(a.cfg.EraseLatency)} {
		if err := i64(d); err != nil {
			return err
		}
	}
	for _, s := range []int64{a.stats.Reads, a.stats.Programs, a.stats.Erases} {
		if err := i64(s); err != nil {
			return err
		}
	}
	for bi := range a.writePtr {
		if err := u32(uint32(a.erases[bi])); err != nil {
			return err
		}
		if err := u32(uint32(a.writePtr[bi])); err != nil {
			return err
		}
		for pi := 0; pi < int(a.writePtr[bi]); pi++ {
			ppa := a.AddrOf(bi, pi)
			oob := a.oob[ppa]
			if err := bw.WriteByte(byte(oob.Kind)); err != nil {
				return err
			}
			if err := i64(int64(oob.LPA)); err != nil {
				return err
			}
			if err := i64(int64(oob.BackPtr)); err != nil {
				return err
			}
			if err := i64(int64(oob.TS)); err != nil {
				return err
			}
			data := a.pageData(ppa)
			if err := u32(uint32(len(data))); err != nil {
				return err
			}
			if _, err := bw.Write(data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadImage deserialises an array previously written with WriteImage.
// Every refusal wraps ErrBadImage.
func ReadImage(r io.Reader) (*Array, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadImage, magic)
	}
	le := binary.LittleEndian
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch[:4]), nil
	}
	i64 := func() (int64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return int64(le.Uint64(scratch[:])), nil
	}
	var geo [6]uint32
	for i := range geo {
		v, err := u32()
		if err != nil {
			return nil, fmt.Errorf("%w: geometry: %v", ErrBadImage, err)
		}
		geo[i] = v
	}
	cfg := Config{
		Channels: int(geo[0]), ChipsPerChannel: int(geo[1]), PlanesPerChip: int(geo[2]),
		BlocksPerPlane: int(geo[3]), PagesPerBlock: int(geo[4]), PageSize: int(geo[5]),
	}
	// Sanity-cap the geometry before allocating anything: a corrupt header
	// must fail fast, not commit gigabytes. With every field capped first,
	// the running page count below cannot overflow.
	for _, g := range geo {
		if g == 0 || g > 1<<20 {
			return nil, fmt.Errorf("%w: implausible geometry field %d", ErrBadImage, g)
		}
	}
	pages := uint64(1)
	for _, g := range geo[:5] {
		if pages *= uint64(g); pages > maxImagePages {
			return nil, fmt.Errorf("%w: image claims more than %d pages", ErrBadImage, maxImagePages)
		}
	}
	if size := pages * uint64(geo[5]); size > 1<<36 {
		return nil, fmt.Errorf("%w: image claims %d bytes", ErrBadImage, size)
	}
	var lat [3]int64
	for i := range lat {
		v, err := i64()
		if err != nil {
			return nil, fmt.Errorf("%w: latencies: %v", ErrBadImage, err)
		}
		lat[i] = v
	}
	cfg.ReadLatency, cfg.ProgLatency, cfg.EraseLatency =
		vclock.Duration(lat[0]), vclock.Duration(lat[1]), vclock.Duration(lat[2])
	a, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	var st [3]int64
	for i := range st {
		v, err := i64()
		if err != nil {
			return nil, fmt.Errorf("%w: stats: %v", ErrBadImage, err)
		}
		st[i] = v
	}
	a.stats = Stats{Reads: st[0], Programs: st[1], Erases: st[2]}

	var rec [29]byte // a page's u8 kind, u64 lpa, u64 backptr, i64 ts, u32 dataLen
	for bi := range a.writePtr {
		erases, err := u32()
		if err != nil {
			return nil, fmt.Errorf("%w: block %d header: %v", ErrBadImage, bi, err)
		}
		wp, err := u32()
		if err != nil {
			return nil, fmt.Errorf("%w: block %d header: %v", ErrBadImage, bi, err)
		}
		if int(wp) > cfg.PagesPerBlock {
			return nil, fmt.Errorf("%w: block %d write pointer %d", ErrBadImage, bi, wp)
		}
		a.erases[bi] = int32(erases)
		a.writePtr[bi] = int32(wp)
		for pi := 0; pi < int(wp); pi++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("%w: block %d page %d: %v", ErrBadImage, bi, pi, err)
			}
			kind, n := PageKind(rec[0]), le.Uint32(rec[25:])
			if kind == KindFree {
				return nil, fmt.Errorf("%w: block %d page %d marked free but programmed", ErrBadImage, bi, pi)
			}
			if n > uint32(cfg.PageSize) {
				return nil, fmt.Errorf("%w: block %d page %d payload %d", ErrBadImage, bi, pi, n)
			}
			ppa := a.AddrOf(bi, pi)
			off := int(ppa) * cfg.PageSize
			if _, err := io.ReadFull(br, a.data[off:off+int(n)]); err != nil {
				return nil, fmt.Errorf("%w: block %d page %d data: %v", ErrBadImage, bi, pi, err)
			}
			a.dataLen[ppa] = int32(n)
			a.oob[ppa] = OOB{
				Kind:    kind,
				LPA:     le.Uint64(rec[1:]),
				BackPtr: PPA(le.Uint64(rec[9:])),
				TS:      vclock.Time(le.Uint64(rec[17:])),
			}
		}
	}
	return a, nil
}
