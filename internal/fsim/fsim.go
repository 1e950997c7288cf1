// Package fsim is a small block file system used as the software layer of
// the paper's evaluation (§5.3). It runs over any ftl.Device and supports
// three commit modes that reproduce the write-traffic shapes of the
// compared systems:
//
//   - ModeInPlace: Ext4-style in-place updates with no journal — the
//     configuration the paper runs on top of TimeSSD ("Ext4 with
//     journaling disabled"), since the device itself retains history;
//   - ModeOrderedJournal: Ext4's default ordered mode — data goes in
//     place once, but every operation commits its dirtied metadata pages
//     through the journal (descriptor + pages + commit record);
//   - ModeDataJournal: Ext4 data journaling — every data and metadata
//     block is first written to the journal and then in place, roughly
//     doubling write traffic;
//   - ModeLogStructured: F2FS-style log-structured allocation — updates
//     always go to the head of a log, with a software segment cleaner,
//     avoiding the double write but paying cleaning I/O.
//
// The file system is flat (a root directory of named files), write-through
// (every operation persists the metadata it dirties), and fully mountable:
// Mount rebuilds the complete state from the device, which the tests use to
// prove the on-disk format is self-describing.
package fsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// Mode selects the commit strategy.
type Mode uint8

const (
	ModeInPlace Mode = iota
	ModeDataJournal
	ModeLogStructured
	ModeOrderedJournal
)

func (m Mode) String() string {
	switch m {
	case ModeInPlace:
		return "in-place"
	case ModeDataJournal:
		return "data-journal"
	case ModeLogStructured:
		return "log-structured"
	case ModeOrderedJournal:
		return "ordered-journal"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// journals reports whether the mode commits through a journal region.
func (m Mode) journals() bool { return m == ModeDataJournal || m == ModeOrderedJournal }

const (
	magic      = 0x414c4d4e_46533031 // "ALMNFS01"
	inodeSize  = 128
	numDirect  = 12
	nullPtr    = ^uint64(0)
	rootInode  = 0
	maxNameLen = 255
)

// Errors.
var (
	ErrExists     = errors.New("fsim: file exists")
	ErrNotFound   = errors.New("fsim: file not found")
	ErrNoSpace    = errors.New("fsim: out of space")
	ErrNoInodes   = errors.New("fsim: out of inodes")
	ErrBadName    = errors.New("fsim: bad file name")
	ErrFileTooBig = errors.New("fsim: file exceeds maximum size")
	ErrNotMounted = errors.New("fsim: not a file system (bad magic)")
)

// Options tunes Mkfs.
type Options struct {
	Mode         Mode
	InodeCount   int
	JournalPages int // only for ModeDataJournal
	SegmentPages int // only for ModeLogStructured
}

// DefaultOptions sizes the file system for the device.
func DefaultOptions(mode Mode) Options {
	return Options{Mode: mode, InodeCount: 512, JournalPages: 64, SegmentPages: 16}
}

type superblock struct {
	mode         Mode
	inodeCount   uint32
	bitmapStart  uint32
	bitmapPages  uint32
	inodeStart   uint32
	inodePages   uint32
	journalStart uint32
	journalPages uint32
	dataStart    uint32
	dataPages    uint32
	segmentPages uint32
}

type inode struct {
	used     bool
	size     uint64
	mtime    vclock.Time
	direct   [numDirect]uint64
	indirect uint64   // LPA of the on-disk indirect pointer page
	ind      []uint64 // in-core copy of the indirect pointers (lazy)
}

// FS is a mounted file system.
type FS struct {
	dev ftl.Device
	sb  superblock

	bitmap []bool  // data-region liveness, indexed by data page offset
	inodes []inode // in-core inode table
	dir    map[string]uint32

	freeData    int
	allocCursor int

	// Reverse map for the segment cleaner: which (inode, file-page index)
	// owns each live data page; ownerIdx -1 marks an indirect page.
	owner    []int32
	ownerIdx []int32

	// Log-structured allocator state.
	segClean    []bool // segment has no live pages and may be claimed by the log
	logSeg      int    // segment the log head is in (-1 = none)
	logOff      int    // next page offset within logSeg
	cleaning    bool   // re-entrancy guard for the segment cleaner
	journalHead int    // next journal page (journaling modes, wraps)

	// Per-operation dirty counters for journal commits.
	opMeta int
	opData int

	// Stats.
	MetaWrites    int64
	DataWrites    int64
	JournalWrites int64
	CleanerReads  int64
	CleanerWrites int64
	CleanerRuns   int64
}

// pagesFor returns how many pages hold n bytes.
func pagesFor(n, pageSize int) int { return (n + pageSize - 1) / pageSize }

func newOwnerMap(n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// Mkfs formats the device and returns a mounted FS.
func Mkfs(dev ftl.Device, opts Options, at vclock.Time) (*FS, vclock.Time, error) {
	ps := dev.PageSize()
	if ps < 256 {
		return nil, at, fmt.Errorf("fsim: page size %d too small", ps)
	}
	total := dev.LogicalPages()
	if opts.InodeCount < 2 {
		opts.InodeCount = 2
	}
	inodePages := pagesFor(opts.InodeCount*inodeSize, ps)
	journalPages := 0
	if opts.Mode.journals() {
		journalPages = opts.JournalPages
		if journalPages < 8 {
			journalPages = 8
		}
	}
	segPages := opts.SegmentPages
	if segPages < 4 {
		segPages = 4
	}

	// Bitmap sizing: one bit per data page; solve with a conservative
	// two-pass estimate.
	meta := 1 + inodePages + journalPages
	bitmapPages := pagesFor((total-meta)/8+1, ps)
	dataStart := meta + bitmapPages
	dataPages := total - dataStart
	if dataPages < segPages {
		return nil, at, fmt.Errorf("fsim: device too small: %d data pages", dataPages)
	}
	if opts.Mode == ModeLogStructured {
		dataPages -= dataPages % segPages
	}

	sb := superblock{
		mode:         opts.Mode,
		inodeCount:   uint32(opts.InodeCount),
		bitmapStart:  1,
		bitmapPages:  uint32(bitmapPages),
		inodeStart:   uint32(1 + bitmapPages),
		inodePages:   uint32(inodePages),
		journalStart: uint32(1 + bitmapPages + inodePages),
		journalPages: uint32(journalPages),
		dataStart:    uint32(dataStart),
		dataPages:    uint32(dataPages),
		segmentPages: uint32(segPages),
	}
	fs := &FS{
		dev:      dev,
		sb:       sb,
		bitmap:   make([]bool, dataPages),
		inodes:   make([]inode, opts.InodeCount),
		dir:      make(map[string]uint32),
		freeData: dataPages,
		logSeg:   -1,
		owner:    newOwnerMap(dataPages),
		ownerIdx: newOwnerMap(dataPages),
	}
	for i := range fs.inodes {
		for j := range fs.inodes[i].direct {
			fs.inodes[i].direct[j] = nullPtr
		}
		fs.inodes[i].indirect = nullPtr
	}
	if opts.Mode == ModeLogStructured {
		fs.segClean = make([]bool, dataPages/segPages)
		for i := range fs.segClean {
			fs.segClean[i] = true
		}
	}
	// Root directory inode.
	fs.inodes[rootInode].used = true
	fs.inodes[rootInode].mtime = at

	var err error
	if at, err = fs.writeSuper(at); err != nil {
		return nil, at, err
	}
	if at, err = fs.writeAllBitmap(at); err != nil {
		return nil, at, err
	}
	if at, err = fs.writeInode(rootInode, at); err != nil {
		return nil, at, err
	}
	if at, err = fs.writeDir(at); err != nil {
		return nil, at, err
	}
	return fs, at, nil
}

// Mount reads the file system back from the device.
func Mount(dev ftl.Device, at vclock.Time) (*FS, vclock.Time, error) {
	ps := dev.PageSize()
	page, at, err := readPage(dev, 0, at)
	if err != nil {
		return nil, at, err
	}
	if binary.LittleEndian.Uint64(page[0:8]) != magic {
		return nil, at, ErrNotMounted
	}
	sb := superblock{
		mode:         Mode(page[8]),
		inodeCount:   binary.LittleEndian.Uint32(page[9:]),
		bitmapStart:  binary.LittleEndian.Uint32(page[13:]),
		bitmapPages:  binary.LittleEndian.Uint32(page[17:]),
		inodeStart:   binary.LittleEndian.Uint32(page[21:]),
		inodePages:   binary.LittleEndian.Uint32(page[25:]),
		journalStart: binary.LittleEndian.Uint32(page[29:]),
		journalPages: binary.LittleEndian.Uint32(page[33:]),
		dataStart:    binary.LittleEndian.Uint32(page[37:]),
		dataPages:    binary.LittleEndian.Uint32(page[41:]),
		segmentPages: binary.LittleEndian.Uint32(page[45:]),
	}
	fs := &FS{
		dev:      dev,
		sb:       sb,
		bitmap:   make([]bool, sb.dataPages),
		inodes:   make([]inode, sb.inodeCount),
		dir:      make(map[string]uint32),
		logSeg:   -1,
		owner:    newOwnerMap(int(sb.dataPages)),
		ownerIdx: newOwnerMap(int(sb.dataPages)),
	}
	// Bitmap.
	for bp := 0; bp < int(sb.bitmapPages); bp++ {
		page, at, err = readPage(dev, uint64(sb.bitmapStart)+uint64(bp), at)
		if err != nil {
			return nil, at, err
		}
		base := bp * ps * 8
		for i := 0; i < ps*8 && base+i < len(fs.bitmap); i++ {
			fs.bitmap[base+i] = page[i/8]&(1<<(i%8)) != 0
		}
	}
	fs.freeData = 0
	for _, live := range fs.bitmap {
		if !live {
			fs.freeData++
		}
	}
	// Inodes.
	perPage := ps / inodeSize
	for ip := 0; ip < int(sb.inodePages); ip++ {
		page, at, err = readPage(dev, uint64(sb.inodeStart)+uint64(ip), at)
		if err != nil {
			return nil, at, err
		}
		for k := 0; k < perPage; k++ {
			idx := ip*perPage + k
			if idx >= len(fs.inodes) {
				break
			}
			fs.inodes[idx] = decodeInode(page[k*inodeSize : (k+1)*inodeSize])
		}
	}
	// Indirect pointer pages and the cleaner's reverse map.
	for ino := range fs.inodes {
		in := &fs.inodes[ino]
		if !in.used {
			continue
		}
		if in.indirect != nullPtr {
			page, done, rerr := dev.Read(in.indirect, at)
			if rerr != nil {
				return nil, at, rerr
			}
			at = done
			in.ind = make([]uint64, ps/8)
			for i := range in.ind {
				in.ind[i] = binary.LittleEndian.Uint64(page[i*8:])
			}
			fs.owner[fs.dpOf(in.indirect)] = int32(ino)
			fs.ownerIdx[fs.dpOf(in.indirect)] = -1
		}
		pages := int((int64(in.size) + int64(ps) - 1) / int64(ps))
		for idx := 0; idx < pages; idx++ {
			if lpa := fs.getPtr(uint32(ino), idx); lpa != nullPtr {
				fs.owner[fs.dpOf(lpa)] = int32(ino)
				fs.ownerIdx[fs.dpOf(lpa)] = int32(idx)
			}
		}
	}
	// Directory (content of the root inode).
	dirBytes, at, err := fs.readFileByInode(rootInode, 0, int(fs.inodes[rootInode].size), at)
	if err != nil {
		return nil, at, err
	}
	if err := fs.decodeDir(dirBytes); err != nil {
		return nil, at, err
	}
	// Log-structured state rebuild.
	if sb.mode == ModeLogStructured {
		seg := int(sb.segmentPages)
		fs.segClean = make([]bool, int(sb.dataPages)/seg)
		for s := range fs.segClean {
			clean := true
			for o := 0; o < seg; o++ {
				if fs.bitmap[s*seg+o] {
					clean = false
					break
				}
			}
			fs.segClean[s] = clean
		}
	}
	return fs, at, nil
}

// Mode returns the commit mode.
func (fs *FS) Mode() Mode { return fs.sb.mode }

// Device returns the underlying device.
func (fs *FS) Device() ftl.Device { return fs.dev }

// List returns the file names in the root directory, sorted.
func (fs *FS) List() []string {
	names := make([]string, 0, len(fs.dir))
	for n := range fs.dir {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns a file's size in bytes.
func (fs *FS) Size(name string) (int64, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(fs.inodes[ino].size), nil
}

// readPage reads one logical page into a fresh buffer.
func readPage(dev ftl.Device, lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	data, done, err := dev.Read(lpa, at)
	if err != nil {
		return nil, at, err
	}
	cp := make([]byte, dev.PageSize())
	copy(cp, data)
	return cp, done, nil
}

func decodeInode(b []byte) inode {
	var in inode
	in.used = b[0] == 1
	in.size = binary.LittleEndian.Uint64(b[1:])
	in.mtime = vclock.Time(binary.LittleEndian.Uint64(b[9:]))
	for j := 0; j < numDirect; j++ {
		in.direct[j] = binary.LittleEndian.Uint64(b[17+8*j:])
	}
	in.indirect = binary.LittleEndian.Uint64(b[17+8*numDirect:])
	return in
}

func encodeInode(in *inode, b []byte) {
	if in.used {
		b[0] = 1
	} else {
		b[0] = 0
	}
	binary.LittleEndian.PutUint64(b[1:], in.size)
	binary.LittleEndian.PutUint64(b[9:], uint64(in.mtime))
	for j := 0; j < numDirect; j++ {
		binary.LittleEndian.PutUint64(b[17+8*j:], in.direct[j])
	}
	binary.LittleEndian.PutUint64(b[17+8*numDirect:], in.indirect)
}

func (fs *FS) writeSuper(at vclock.Time) (vclock.Time, error) {
	page := make([]byte, fs.dev.PageSize())
	binary.LittleEndian.PutUint64(page[0:], magic)
	page[8] = byte(fs.sb.mode)
	binary.LittleEndian.PutUint32(page[9:], fs.sb.inodeCount)
	binary.LittleEndian.PutUint32(page[13:], fs.sb.bitmapStart)
	binary.LittleEndian.PutUint32(page[17:], fs.sb.bitmapPages)
	binary.LittleEndian.PutUint32(page[21:], fs.sb.inodeStart)
	binary.LittleEndian.PutUint32(page[25:], fs.sb.inodePages)
	binary.LittleEndian.PutUint32(page[29:], fs.sb.journalStart)
	binary.LittleEndian.PutUint32(page[33:], fs.sb.journalPages)
	binary.LittleEndian.PutUint32(page[37:], fs.sb.dataStart)
	binary.LittleEndian.PutUint32(page[41:], fs.sb.dataPages)
	binary.LittleEndian.PutUint32(page[45:], fs.sb.segmentPages)
	fs.MetaWrites++
	fs.opMeta++
	return fs.dev.Write(0, page, at)
}

// writeBitmapPage persists the bitmap page containing data-page index dp.
func (fs *FS) writeBitmapPage(dp int, at vclock.Time) (vclock.Time, error) {
	ps := fs.dev.PageSize()
	bp := dp / (ps * 8)
	page := make([]byte, ps)
	base := bp * ps * 8
	for i := 0; i < ps*8 && base+i < len(fs.bitmap); i++ {
		if fs.bitmap[base+i] {
			page[i/8] |= 1 << (i % 8)
		}
	}
	fs.MetaWrites++
	fs.opMeta++
	return fs.dev.Write(uint64(fs.sb.bitmapStart)+uint64(bp), page, at)
}

func (fs *FS) writeAllBitmap(at vclock.Time) (vclock.Time, error) {
	ps := fs.dev.PageSize()
	var err error
	for bp := 0; bp < int(fs.sb.bitmapPages); bp++ {
		if at, err = fs.writeBitmapPage(bp*ps*8, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// writeInode persists the inode-table page holding ino.
func (fs *FS) writeInode(ino uint32, at vclock.Time) (vclock.Time, error) {
	ps := fs.dev.PageSize()
	perPage := ps / inodeSize
	ip := int(ino) / perPage
	page := make([]byte, ps)
	for k := 0; k < perPage; k++ {
		idx := ip*perPage + k
		if idx >= len(fs.inodes) {
			break
		}
		encodeInode(&fs.inodes[idx], page[k*inodeSize:(k+1)*inodeSize])
	}
	fs.MetaWrites++
	fs.opMeta++
	return fs.dev.Write(uint64(fs.sb.inodeStart)+uint64(ip), page, at)
}

func (fs *FS) encodeDir() []byte {
	names := fs.List()
	var out []byte
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(names)))
	out = append(out, tmp[:]...)
	for _, n := range names {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(n)))
		out = append(out, l[:]...)
		out = append(out, n...)
		binary.LittleEndian.PutUint32(tmp[:], fs.dir[n])
		out = append(out, tmp[:]...)
	}
	return out
}

func (fs *FS) decodeDir(b []byte) error {
	if len(b) < 4 {
		if len(b) == 0 {
			return nil
		}
		return errors.New("fsim: truncated directory")
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	pos := 4
	for i := 0; i < n; i++ {
		if pos+2 > len(b) {
			return errors.New("fsim: truncated directory entry")
		}
		l := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if pos+l+4 > len(b) {
			return errors.New("fsim: truncated directory name")
		}
		name := string(b[pos : pos+l])
		pos += l
		ino := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		fs.dir[name] = ino
	}
	return nil
}

// writeDir persists the root directory as inode 0's content.
func (fs *FS) writeDir(at vclock.Time) (vclock.Time, error) {
	return fs.writeFileByInode(rootInode, 0, fs.encodeDir(), true, at)
}
