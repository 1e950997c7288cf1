package fsim

import (
	"encoding/binary"
	"fmt"

	"almanac/internal/vclock"
)

// maxFilePages is the per-file limit: direct pointers plus one indirect page.
func (fs *FS) maxFilePages() int { return numDirect + fs.dev.PageSize()/8 }

// ensureInd materialises the in-core indirect pointer slice of ino.
func (fs *FS) ensureInd(ino uint32) {
	in := &fs.inodes[ino]
	if in.ind == nil {
		in.ind = make([]uint64, fs.dev.PageSize()/8)
		for i := range in.ind {
			in.ind[i] = nullPtr
		}
	}
}

// getPtr returns the absolute LPA of file page idx, or nullPtr.
func (fs *FS) getPtr(ino uint32, idx int) uint64 {
	in := &fs.inodes[ino]
	if idx < numDirect {
		return in.direct[idx]
	}
	if in.ind == nil {
		return nullPtr
	}
	return in.ind[idx-numDirect]
}

// setPtr sets file page idx of ino to lpa, flagging which structures became
// dirty.
func (fs *FS) setPtr(ino uint32, idx int, lpa uint64, dirtyInode, dirtyInd *bool) {
	in := &fs.inodes[ino]
	if idx < numDirect {
		in.direct[idx] = lpa
		*dirtyInode = true
		return
	}
	fs.ensureInd(ino)
	in.ind[idx-numDirect] = lpa
	*dirtyInd = true
}

// dpOf converts an absolute LPA to a data-region offset.
func (fs *FS) dpOf(lpa uint64) int { return int(lpa) - int(fs.sb.dataStart) }

// lpaOf converts a data-region offset to an absolute LPA.
func (fs *FS) lpaOf(dp int) uint64 { return uint64(fs.sb.dataStart) + uint64(dp) }

// allocDataPage claims a free data page for (ino, idx). In-place mode uses
// a rotating first-fit scan; log-structured mode allocates at the log head,
// invoking the cleaner when clean segments run low.
func (fs *FS) allocDataPage(ino uint32, idx int, at vclock.Time) (int, vclock.Time, error) {
	if fs.freeData == 0 {
		return -1, at, ErrNoSpace
	}
	if fs.sb.mode == ModeLogStructured {
		return fs.allocLog(ino, idx, at)
	}
	n := len(fs.bitmap)
	for i := 0; i < n; i++ {
		dp := (fs.allocCursor + i) % n
		if !fs.bitmap[dp] {
			fs.allocCursor = (dp + 1) % n
			fs.claim(dp, ino, idx)
			return dp, at, nil
		}
	}
	return -1, at, ErrNoSpace
}

func (fs *FS) claim(dp int, ino uint32, idx int) {
	fs.bitmap[dp] = true
	fs.freeData--
	fs.owner[dp] = int32(ino)
	fs.ownerIdx[dp] = int32(idx)
}

// release frees a data page and trims it on the device (ext4 and F2FS both
// discard freed blocks on SSDs).
func (fs *FS) release(dp int, at vclock.Time) (vclock.Time, error) {
	fs.bitmap[dp] = false
	fs.freeData++
	fs.owner[dp] = -1
	fs.ownerIdx[dp] = -1
	if fs.sb.mode == ModeLogStructured {
		seg := dp / int(fs.sb.segmentPages)
		clean := true
		base := seg * int(fs.sb.segmentPages)
		for o := 0; o < int(fs.sb.segmentPages); o++ {
			if fs.bitmap[base+o] {
				clean = false
				break
			}
		}
		if clean && seg != fs.logSeg {
			fs.segClean[seg] = true
		}
	}
	return fs.dev.Trim(fs.lpaOf(dp), at)
}

// allocLog allocates from the log head.
func (fs *FS) allocLog(ino uint32, idx int, at vclock.Time) (int, vclock.Time, error) {
	seg := int(fs.sb.segmentPages)
	var err error
	if fs.logSeg < 0 || fs.logOff >= seg {
		// The cleaner allocates its relocation targets through this path
		// too; it must not recurse into itself.
		if !fs.cleaning {
			if at, err = fs.ensureCleanSegments(at); err != nil {
				return -1, at, err
			}
		}
		found := -1
		for s, c := range fs.segClean {
			if c {
				found = s
				break
			}
		}
		if found < 0 {
			return -1, at, ErrNoSpace
		}
		fs.segClean[found] = false
		fs.logSeg = found
		fs.logOff = 0
	}
	dp := fs.logSeg*seg + fs.logOff
	fs.logOff++
	fs.claim(dp, ino, idx)
	return dp, at, nil
}

// cleanReserve is the number of clean segments the cleaner maintains.
const cleanReserve = 2

// ensureCleanSegments runs the segment cleaner until the reserve is met:
// pick the segment with the fewest live pages, relocate them to the log,
// and reclaim it (the software analogue of the device's GC — the cost F2FS
// pays instead of journaling).
func (fs *FS) ensureCleanSegments(at vclock.Time) (vclock.Time, error) {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	segPages := int(fs.sb.segmentPages)
	for tries := 0; tries < len(fs.segClean); tries++ {
		clean := 0
		for _, c := range fs.segClean {
			if c {
				clean++
			}
		}
		if clean >= cleanReserve {
			return at, nil
		}
		// Dirtiest victim (fewest live pages), excluding the active log
		// segment and clean segments.
		victim, victimLive := -1, segPages+1
		for s := range fs.segClean {
			if fs.segClean[s] || s == fs.logSeg {
				continue
			}
			live := 0
			base := s * segPages
			for o := 0; o < segPages; o++ {
				if fs.bitmap[base+o] {
					live++
				}
			}
			if live < victimLive {
				victim, victimLive = s, live
			}
		}
		if victim < 0 {
			return at, ErrNoSpace
		}
		fs.CleanerRuns++
		base := victim * segPages
		for o := 0; o < segPages; o++ {
			dp := base + o
			if !fs.bitmap[dp] {
				continue
			}
			ino, idx := fs.owner[dp], fs.ownerIdx[dp]
			data, done, err := fs.dev.Read(fs.lpaOf(dp), at)
			if err != nil {
				return at, err
			}
			fs.CleanerReads++
			at = done
			cp := make([]byte, len(data))
			copy(cp, data)
			// Relocation target must come from the log; the log segment is
			// guaranteed distinct from the victim.
			ndp, natt, err := fs.allocLog(uint32(ino), int(idx), at)
			if err != nil {
				return at, err
			}
			at = natt
			if at, err = fs.dev.Write(fs.lpaOf(ndp), cp, at); err != nil {
				return at, err
			}
			fs.CleanerWrites++
			if idx == -1 {
				// The page is an inode's indirect pointer page; repoint the
				// inode at the relocated copy.
				fs.inodes[ino].indirect = fs.lpaOf(ndp)
				if at, err = fs.writeInode(uint32(ino), at); err != nil {
					return at, err
				}
			} else {
				var dirtyInode, dirtyInd bool
				fs.setPtr(uint32(ino), int(idx), fs.lpaOf(ndp), &dirtyInode, &dirtyInd)
				if at, err = fs.persistInode(uint32(ino), dirtyInd, at); err != nil {
					return at, err
				}
			}
			fs.bitmap[dp] = false
			fs.freeData++
			fs.owner[dp] = -1
			fs.ownerIdx[dp] = -1
			if at, err = fs.dev.Trim(fs.lpaOf(dp), at); err != nil {
				return at, err
			}
		}
		fs.segClean[victim] = true
		var err error
		if at, err = fs.writeBitmapPage(base, at); err != nil {
			return at, err
		}
	}
	return at, ErrNoSpace
}

// persistInode writes the inode table page of ino and, if dirtyInd, its
// indirect page (allocating one on first use).
func (fs *FS) persistInode(ino uint32, dirtyInd bool, at vclock.Time) (vclock.Time, error) {
	in := &fs.inodes[ino]
	var err error
	if dirtyInd && in.ind != nil {
		if in.indirect == nullPtr {
			// The indirect page lives in the data region too.
			dp, natt, aerr := fs.allocDataPage(ino, -1, at)
			if aerr != nil {
				return at, aerr
			}
			at = natt
			in.indirect = fs.lpaOf(dp)
			if at, err = fs.writeBitmapPage(dp, at); err != nil {
				return at, err
			}
		}
		page := make([]byte, fs.dev.PageSize())
		for i, p := range in.ind {
			binary.LittleEndian.PutUint64(page[i*8:], p)
		}
		fs.MetaWrites++
		fs.opMeta++
		if at, err = fs.dev.Write(in.indirect, page, at); err != nil {
			return at, err
		}
	}
	return fs.writeInode(ino, at)
}

// beginOp resets the per-operation dirty counters; every public mutating
// operation is one journal transaction.
func (fs *FS) beginOp() { fs.opMeta, fs.opData = 0, 0 }

// endOp commits the operation's journal transaction. Data journaling
// writes the transaction's data and metadata page images through the
// journal; ordered journaling commits only the metadata. Both add a
// descriptor and a commit record, wrapping circularly.
func (fs *FS) endOp(at vclock.Time) (vclock.Time, error) {
	if fs.sb.journalPages == 0 || fs.opMeta+fs.opData == 0 {
		return at, nil
	}
	var n int
	switch fs.sb.mode {
	case ModeDataJournal:
		n = fs.opData + fs.opMeta + 2
	case ModeOrderedJournal:
		n = fs.opMeta + 2
	default:
		return at, nil
	}
	ps := fs.dev.PageSize()
	page := make([]byte, ps)
	var err error
	for i := 0; i < n; i++ {
		lpa := uint64(fs.sb.journalStart) + uint64(fs.journalHead)
		fs.journalHead = (fs.journalHead + 1) % int(fs.sb.journalPages)
		fs.JournalWrites++
		if at, err = fs.dev.Write(lpa, page, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// readFileByInode reads [off, off+n) of an inode's content.
func (fs *FS) readFileByInode(ino uint32, off int64, n int, at vclock.Time) ([]byte, vclock.Time, error) {
	in := &fs.inodes[ino]
	if off < 0 || n < 0 {
		return nil, at, fmt.Errorf("fsim: negative read range")
	}
	if off > int64(in.size) {
		return nil, at, nil
	}
	if off+int64(n) > int64(in.size) {
		n = int(int64(in.size) - off)
	}
	ps := int64(fs.dev.PageSize())
	out := make([]byte, 0, n)
	for n > 0 {
		idx := int(off / ps)
		inOff := int(off % ps)
		take := int(ps) - inOff
		if take > n {
			take = n
		}
		lpa := fs.getPtr(ino, idx)
		if lpa == nullPtr {
			out = append(out, make([]byte, take)...) // hole
		} else {
			data, done, err := fs.dev.Read(lpa, at)
			if err != nil {
				return nil, at, err
			}
			if done > at {
				at = done
			}
			out = append(out, data[inOff:inOff+take]...)
		}
		off += int64(take)
		n -= take
	}
	return out, at, nil
}

// writeFileByInode writes data at off. If truncate, the file is cut to
// exactly off+len(data) and pages beyond are freed (used by directory
// rewrites). All dirtied metadata is persisted before returning.
func (fs *FS) writeFileByInode(ino uint32, off int64, data []byte, truncate bool, at vclock.Time) (vclock.Time, error) {
	in := &fs.inodes[ino]
	ps := int64(fs.dev.PageSize())
	end := off + int64(len(data))
	if int((end+ps-1)/ps) > fs.maxFilePages() {
		return at, fmt.Errorf("%w: %d bytes", ErrFileTooBig, end)
	}
	var dirtyInode, dirtyInd bool
	dirtyBitmapPages := map[int]bool{}
	var err error

	pos := off
	rem := data
	for len(rem) > 0 {
		idx := int(pos / ps)
		inOff := int(pos % ps)
		take := int(ps) - inOff
		if take > len(rem) {
			take = len(rem)
		}
		// Build the final page image.
		page := make([]byte, ps)
		old := fs.getPtr(ino, idx)
		partial := inOff != 0 || take < int(ps)
		if partial && old != nullPtr {
			prev, done, rerr := fs.dev.Read(old, at)
			if rerr != nil {
				return at, rerr
			}
			if done > at {
				at = done
			}
			copy(page, prev)
		}
		copy(page[inOff:], rem[:take])

		var target uint64
		switch {
		case old == nullPtr:
			dp, natt, aerr := fs.allocDataPage(ino, idx, at)
			if aerr != nil {
				return at, aerr
			}
			at = natt
			target = fs.lpaOf(dp)
			fs.setPtr(ino, idx, target, &dirtyInode, &dirtyInd)
			dirtyBitmapPages[dp/(int(ps)*8)] = true
		case fs.sb.mode == ModeLogStructured:
			// Out-of-place update: new log page, free the old one. The
			// allocation may invoke the segment cleaner, which can relocate
			// the page we are replacing — release whatever the pointer says
			// NOW, not the address captured before the allocation.
			dp, natt, aerr := fs.allocLog(ino, idx, at)
			if aerr != nil {
				return at, aerr
			}
			at = natt
			target = fs.lpaOf(dp)
			cur := fs.getPtr(ino, idx)
			fs.setPtr(ino, idx, target, &dirtyInode, &dirtyInd)
			dirtyBitmapPages[dp/(int(ps)*8)] = true
			if cur != nullPtr {
				odp := fs.dpOf(cur)
				if at, err = fs.release(odp, at); err != nil {
					return at, err
				}
				dirtyBitmapPages[odp/(int(ps)*8)] = true
			}
		default:
			target = old // in-place overwrite
		}
		fs.DataWrites++
		fs.opData++
		if at, err = fs.dev.Write(target, page, at); err != nil {
			return at, err
		}
		pos += int64(take)
		rem = rem[take:]
	}

	// Size bookkeeping and truncation.
	if truncate {
		newPages := int((end + ps - 1) / ps)
		oldPages := int((int64(in.size) + ps - 1) / ps)
		for idx := newPages; idx < oldPages; idx++ {
			lpa := fs.getPtr(ino, idx)
			if lpa == nullPtr {
				continue
			}
			dp := fs.dpOf(lpa)
			if at, err = fs.release(dp, at); err != nil {
				return at, err
			}
			dirtyBitmapPages[dp/(int(ps)*8)] = true
			fs.setPtr(ino, idx, nullPtr, &dirtyInode, &dirtyInd)
		}
		in.size = uint64(end)
		dirtyInode = true
	} else if uint64(end) > in.size {
		in.size = uint64(end)
		dirtyInode = true
	}
	in.mtime = at
	dirtyInode = true

	for bp := range dirtyBitmapPages {
		if at, err = fs.writeBitmapPage(bp*int(ps)*8, at); err != nil {
			return at, err
		}
	}
	if dirtyInode || dirtyInd {
		if at, err = fs.persistInode(ino, dirtyInd, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// Create adds an empty file.
func (fs *FS) Create(name string, at vclock.Time) (vclock.Time, error) {
	if name == "" || len(name) > maxNameLen {
		return at, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if _, ok := fs.dir[name]; ok {
		return at, fmt.Errorf("%w: %s", ErrExists, name)
	}
	fs.beginOp()
	ino := -1
	for i := 1; i < len(fs.inodes); i++ {
		if !fs.inodes[i].used {
			ino = i
			break
		}
	}
	if ino < 0 {
		return at, ErrNoInodes
	}
	in := &fs.inodes[ino]
	*in = inode{used: true, mtime: at}
	for j := range in.direct {
		in.direct[j] = nullPtr
	}
	in.indirect = nullPtr
	fs.dir[name] = uint32(ino)
	var err error
	if at, err = fs.writeInode(uint32(ino), at); err != nil {
		return at, err
	}
	if at, err = fs.writeDir(at); err != nil {
		return at, err
	}
	return fs.endOp(at)
}

// Delete removes a file, trimming its pages.
func (fs *FS) Delete(name string, at vclock.Time) (vclock.Time, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return at, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	fs.beginOp()
	in := &fs.inodes[ino]
	ps := int64(fs.dev.PageSize())
	pages := int((int64(in.size) + ps - 1) / ps)
	var err error
	for idx := 0; idx < pages; idx++ {
		lpa := fs.getPtr(ino, idx)
		if lpa == nullPtr {
			continue
		}
		if at, err = fs.release(fs.dpOf(lpa), at); err != nil {
			return at, err
		}
	}
	if in.indirect != nullPtr {
		if at, err = fs.release(fs.dpOf(in.indirect), at); err != nil {
			return at, err
		}
	}
	*in = inode{}
	for j := range in.direct {
		in.direct[j] = nullPtr
	}
	in.indirect = nullPtr
	delete(fs.dir, name)
	if at, err = fs.writeAllBitmapDirty(at); err != nil {
		return at, err
	}
	if at, err = fs.writeInode(ino, at); err != nil {
		return at, err
	}
	if at, err = fs.writeDir(at); err != nil {
		return at, err
	}
	return fs.endOp(at)
}

// writeAllBitmapDirty persists the full bitmap (delete touches many pages;
// one pass is cheaper to reason about than tracking each).
func (fs *FS) writeAllBitmapDirty(at vclock.Time) (vclock.Time, error) {
	return fs.writeAllBitmap(at)
}

// Write writes data into name at offset off, extending the file as needed.
func (fs *FS) Write(name string, off int64, data []byte, at vclock.Time) (vclock.Time, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return at, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	fs.beginOp()
	at, err := fs.writeFileByInode(ino, off, data, false, at)
	if err != nil {
		return at, err
	}
	return fs.endOp(at)
}

// Append writes data at the end of the file.
func (fs *FS) Append(name string, data []byte, at vclock.Time) (vclock.Time, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return at, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	fs.beginOp()
	at, err := fs.writeFileByInode(ino, int64(fs.inodes[ino].size), data, false, at)
	if err != nil {
		return at, err
	}
	return fs.endOp(at)
}

// Read returns n bytes of name starting at off (short if EOF).
func (fs *FS) Read(name string, off int64, n int, at vclock.Time) ([]byte, vclock.Time, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return nil, at, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fs.readFileByInode(ino, off, n, at)
}

// FileLPAs returns the absolute logical pages backing a file, in order —
// what TimeKits' address-based queries take as input (§3.9: "whose LPAs
// can be obtained from the file-system metadata").
func (fs *FS) FileLPAs(name string) ([]uint64, error) {
	ino, ok := fs.dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	in := &fs.inodes[ino]
	ps := int64(fs.dev.PageSize())
	pages := int((int64(in.size) + ps - 1) / ps)
	out := make([]uint64, 0, pages)
	for idx := 0; idx < pages; idx++ {
		if lpa := fs.getPtr(ino, idx); lpa != nullPtr {
			out = append(out, lpa)
		}
	}
	return out, nil
}
