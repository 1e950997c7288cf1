// Package ftl provides the flash-translation-layer machinery shared by the
// Regular SSD baseline and TimeSSD: the address mapping table (AMT), page
// validity table (PVT), block status table (BST), free-block pools, active
// write frontiers, victim selection, and wear leveling (Fig. 3, top half).
//
// The Regular type in this package is the conventional page-mapping FTL the
// paper compares against (§5.2); the TimeSSD FTL in internal/core builds on
// the same Base.
package ftl

import (
	"errors"
	"fmt"

	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// Device is the host-facing block interface both FTLs implement. All
// operations carry the virtual time at which the host issues them and
// return the virtual completion time, from which the caller derives
// response latency.
type Device interface {
	// Read returns the current content of lpa. Reading a never-written or
	// trimmed LPA yields a zeroed page at zero device cost.
	Read(lpa uint64, at vclock.Time) (data []byte, done vclock.Time, err error)
	// Write stores data (at most one page) at lpa.
	Write(lpa uint64, data []byte, at vclock.Time) (done vclock.Time, err error)
	// Trim invalidates lpa.
	Trim(lpa uint64, at vclock.Time) (done vclock.Time, err error)
	// LogicalPages is the exported capacity in pages (raw minus OP space).
	LogicalPages() int
	// PageSize is the page size in bytes.
	PageSize() int
}

// Errors surfaced by FTL operations.
var (
	ErrOutOfRange = errors.New("ftl: logical address out of range")
	ErrDeviceFull = errors.New("ftl: no reclaimable space (device full)")
)

// Params configures an FTL instance.
type Params struct {
	Flash flash.Config

	// OPRatio is over-provisioning as a fraction of logical capacity
	// (0.15 means raw = 1.15 × logical, as on the paper's board).
	OPRatio float64

	// GCLowBlocks / GCHighBlocks are the free-block watermarks: GC starts
	// when the pool drops to the low mark and runs until the high mark.
	GCLowBlocks  int
	GCHighBlocks int

	// WearDelta is the max tolerated spread of per-block erase counts
	// before wear leveling swaps cold data; WearCheckEvery is how many
	// erases pass between checks.
	WearDelta      int
	WearCheckEvery int

	// MappingCacheSlots enables DFTL-style demand paging of the address
	// mapping table (the paper's Fig. 3: the AMT lives in flash as
	// translation pages located through the GMD, with recently-accessed
	// mappings cached). Zero means the whole table is cached — the
	// right model for the paper's board, whose DRAM holds the full AMT.
	// A positive value caches that many translation pages; misses charge
	// a flash read and dirty evictions a flash program.
	MappingCacheSlots int
}

// WithFlash derives sensible FTL parameters for a flash geometry.
func WithFlash(fc flash.Config) Params {
	total := fc.TotalBlocks()
	// Foreground GC triggers at the low mark and is incremental (a couple
	// of passes per request); the high mark is the background-GC refill
	// target. The gap between them absorbs bursts — a workload property,
	// not a device one — so the target is capped absolutely: an oversized
	// target makes background GC grind a retention-packed device.
	high := total / 16
	if high > 32 {
		high = 32
	}
	if high < 6 {
		high = 6
	}
	low := high / 2
	return Params{
		Flash:          fc,
		OPRatio:        0.15,
		GCLowBlocks:    low,
		GCHighBlocks:   high,
		WearDelta:      32,
		WearCheckEvery: 64,
	}
}

// blockQueue is a FIFO of block indices. FIFO order matters: returning
// erased blocks to the tail and allocating from the head rotates every
// block through service, which spreads wear even before the explicit
// wear-leveling pass runs.
type blockQueue struct {
	items []int
	head  int
}

func (q *blockQueue) push(blk int) { q.items = append(q.items, blk) }

func (q *blockQueue) pop() (int, bool) {
	if q.head >= len(q.items) {
		return 0, false
	}
	blk := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return blk, true
}

func (q *blockQueue) len() int { return len(q.items) - q.head }

// blockState tracks a block's role in the pools.
type blockState uint8

const (
	bsFree blockState = iota
	bsActive
	bsSealed
	// bsBad is a grown bad block: its erase failed, so it is retired — never
	// returned to the free pool, never selected as a GC or wear victim. The
	// retirement is also persisted on the medium (every page KindBad), which
	// is how a rebuild scan re-retires the block after a crash.
	bsBad
)

// BlockInfo is the per-block entry of the block status table (BST).
type BlockInfo struct {
	State   blockState
	Kind    flash.PageKind // KindData, KindDelta (TimeSSD), KindFree when free
	Valid   int            // valid pages
	Invalid int            // invalidated pages (regular: reclaimable; TimeSSD: possibly retained)
	Fill    int            // programmed pages
}

// GCCounters aggregates garbage-collection work, the inputs of the paper's
// Eq. 1 overhead estimator.
type GCCounters struct {
	Reads    int64 // flash page reads performed by GC
	Writes   int64 // flash page writes performed by GC (migrations, delta pages)
	Erases   int64 // block erases
	DeltaOps int64 // delta compressions (TimeSSD only)
	Runs     int64 // GC invocations
}

// Base carries the state shared by both FTLs.
type Base struct {
	P   Params
	Arr *flash.Array

	logicalPages int

	AMT  []flash.PPA // address mapping table: LPA → PPA (NullPPA if unmapped)
	PVT  []bool      // page validity table, indexed by PPA
	Info []BlockInfo // block status table, indexed by block

	freeByCh  []blockQueue // per-channel free block queues (FIFO)
	freeCount int

	activeHost []int // per-channel host-write frontier blocks (-1 = none)
	activeGC   []int // per-channel GC/migration frontier blocks
	cursor     int   // round-robin channel cursor for host writes
	gcCursor   int

	HostPageWrites int64
	HostPageReads  int64
	TrimOps        int64
	GC             GCCounters
	MapStats       MapStats
	// ReadFailures counts pages lost to uncorrectable read errors during
	// internal operations (migration); the FTL skips them rather than
	// wedging, like firmware does past ECC.
	ReadFailures int64
	// ProgramFailures counts page programs the flash failed; each burned
	// the page it targeted and was relocated to a fresh one.
	ProgramFailures int64
	// GrownBadBlocks counts blocks retired after an erase failure.
	GrownBadBlocks int64

	mcache        *mapCache
	erasesSinceWL int
	erases        []int // in-core mirror of per-block erase counts (hot path)
}

// NewBase allocates the shared state over a fresh flash array.
func NewBase(p Params) (*Base, error) {
	arr, err := flash.New(p.Flash)
	if err != nil {
		return nil, err
	}
	return NewBaseOn(arr, p)
}

// NewBaseOn allocates the shared state over an existing array — the entry
// point for mount-time state rebuild. All blocks start in the free pool;
// the rebuilder adopts in-use blocks with Adopt.
func NewBaseOn(arr *flash.Array, p Params) (*Base, error) {
	if arr.Config() != p.Flash {
		return nil, errors.New("ftl: array geometry does not match params")
	}
	if p.OPRatio < 0 {
		return nil, errors.New("ftl: negative over-provisioning ratio")
	}
	if p.GCLowBlocks < 1 || p.GCHighBlocks < p.GCLowBlocks {
		return nil, errors.New("ftl: bad GC watermarks")
	}
	total := p.Flash.TotalPages()
	logical := int(float64(total) / (1 + p.OPRatio))
	// Keep at least the GC reserve out of the logical space.
	reserve := (p.GCHighBlocks + 2*p.Flash.Channels) * p.Flash.PagesPerBlock
	if logical > total-reserve {
		logical = total - reserve
	}
	if logical < p.Flash.PagesPerBlock {
		return nil, fmt.Errorf("ftl: geometry too small: %d logical pages", logical)
	}
	b := &Base{
		P:            p,
		Arr:          arr,
		logicalPages: logical,
		AMT:          make([]flash.PPA, logical),
		PVT:          make([]bool, total),
		Info:         make([]BlockInfo, p.Flash.TotalBlocks()),
		freeByCh:     make([]blockQueue, p.Flash.Channels),
		activeHost:   make([]int, p.Flash.Channels),
		activeGC:     make([]int, p.Flash.Channels),
	}
	for i := range b.AMT {
		b.AMT[i] = flash.NullPPA
	}
	for i := range b.activeHost {
		b.activeHost[i] = -1
		b.activeGC[i] = -1
	}
	for blk := 0; blk < p.Flash.TotalBlocks(); blk++ {
		ch := arr.ChannelOfBlock(blk)
		b.freeByCh[ch].push(blk)
	}
	b.freeCount = p.Flash.TotalBlocks()
	b.mcache = newMapCache(p.MappingCacheSlots, p.Flash.PageSize)
	b.erases = make([]int, p.Flash.TotalBlocks())
	for blk := range b.erases {
		b.erases[blk] = arr.EraseCount(blk)
	}
	return b, nil
}

// LogicalPages returns the exported capacity in pages.
func (b *Base) LogicalPages() int { return b.logicalPages }

// PageSize returns the flash page size.
func (b *Base) PageSize() int { return b.P.Flash.PageSize }

// FreeBlocks returns the number of blocks in the free pool.
func (b *Base) FreeBlocks() int { return b.freeCount }

// CheckLPA validates a logical address.
func (b *Base) CheckLPA(lpa uint64) error {
	if lpa >= uint64(b.logicalPages) {
		return fmt.Errorf("%w: lpa %d of %d", ErrOutOfRange, lpa, b.logicalPages)
	}
	return nil
}

// allocBlock pops a free block, preferring channel ch, and marks it active
// with the given kind. Returns -1 if the pool is empty.
func (b *Base) allocBlock(ch int, kind flash.PageKind) int {
	for i := 0; i < b.P.Flash.Channels; i++ {
		c := (ch + i) % b.P.Flash.Channels
		if blk, ok := b.freeByCh[c].pop(); ok {
			b.freeCount--
			b.Info[blk] = BlockInfo{State: bsActive, Kind: kind}
			return blk
		}
	}
	return -1
}

// releaseBlock returns an erased block to the free pool.
func (b *Base) releaseBlock(blk int) {
	ch := b.Arr.ChannelOfBlock(blk)
	b.Info[blk] = BlockInfo{State: bsFree, Kind: flash.KindFree}
	b.freeByCh[ch].push(blk)
	b.freeCount++
}

// frontier describes one of the two write frontiers (host or GC).
type frontier struct {
	active *[]int
	cursor *int
}

func (b *Base) hostFrontier() frontier { return frontier{&b.activeHost, &b.cursor} }
func (b *Base) gcFrontier() frontier   { return frontier{&b.activeGC, &b.gcCursor} }

// HostFrontier exposes the host-write frontier for embedding FTLs.
func (b *Base) HostFrontier() frontier { return b.hostFrontier() }

// AppendPage programs data+oob at the next page of fr's current active
// block (rotating across channels), sealing and replacing blocks as they
// fill. kind tags newly allocated blocks. Returns the PPA and completion.
//
// A program failure burns the target page; AppendPage records the burned
// page as invalid fill and relocates the write to the next page (or the
// next block) transparently. The loop terminates because each failed
// attempt consumes one page of finite capacity: a pathological plan that
// fails every program ends in ErrDeviceFull, like worn-out hardware would.
func (b *Base) AppendPage(fr frontier, kind flash.PageKind, data []byte, oob flash.OOB, at vclock.Time) (flash.PPA, vclock.Time, error) {
	chans := b.P.Flash.Channels
	misses := 0 // consecutive channels with no block to allocate
	for misses < chans {
		ch := *fr.cursor % chans
		*fr.cursor = (*fr.cursor + 1) % chans
		blk := (*fr.active)[ch]
		if blk < 0 {
			blk = b.allocBlock(ch, kind)
			if blk < 0 {
				misses++
				continue
			}
			(*fr.active)[ch] = blk
		}
		misses = 0
		ppa, done, err := b.Arr.Program(blk, data, oob, at)
		if err != nil {
			if errors.Is(err, fault.ErrProgramFail) {
				b.ProgramFailures++
				b.Info[blk].Fill++
				b.Info[blk].Invalid++
				if b.Info[blk].Fill == b.P.Flash.PagesPerBlock {
					b.Info[blk].State = bsSealed
					(*fr.active)[ch] = -1
				}
				at = done
				continue // relocate to the next page/block
			}
			return flash.NullPPA, at, err
		}
		b.Info[blk].Fill++
		b.Info[blk].Valid++
		b.PVT[ppa] = true
		if b.Info[blk].Fill == b.P.Flash.PagesPerBlock {
			b.Info[blk].State = bsSealed
			(*fr.active)[ch] = -1
		}
		return ppa, done, nil
	}
	return flash.NullPPA, at, ErrDeviceFull
}

// InvalidatePPA marks a physical page invalid and updates the BST.
func (b *Base) InvalidatePPA(ppa flash.PPA) {
	if ppa == flash.NullPPA || !b.PVT[ppa] {
		return
	}
	b.PVT[ppa] = false
	blk := b.Arr.BlockOf(ppa)
	b.Info[blk].Valid--
	b.Info[blk].Invalid++
}

// VictimBlock returns the sealed block with the most invalid pages among
// those accepted by keep (nil = all sealed blocks), or -1 if none has any
// invalid page.
func (b *Base) VictimBlock(keep func(blk int) bool) int {
	best, bestInvalid, bestErases := -1, 0, 0
	for blk := range b.Info {
		info := &b.Info[blk]
		if info.State != bsSealed || info.Invalid == 0 {
			continue
		}
		if keep != nil && !keep(blk) {
			continue
		}
		// Ties on invalid count break toward the least-worn block so equal
		// victims rotate instead of the first index starving the rest.
		e := b.erases[blk]
		if info.Invalid > bestInvalid || (info.Invalid == bestInvalid && e < bestErases) {
			best, bestInvalid, bestErases = blk, info.Invalid, e
		}
	}
	return best
}

// VictimBlockOfKind is VictimBlock restricted to sealed blocks of one kind.
// Same scan order and tie-break as VictimBlock with an equivalent keep
// closure; the inlined predicate keeps the per-pass GC victim search off
// the closure-call path.
func (b *Base) VictimBlockOfKind(kind flash.PageKind) int {
	best, bestInvalid, bestErases := -1, 0, 0
	for blk := range b.Info {
		info := &b.Info[blk]
		if info.State != bsSealed || info.Invalid == 0 || info.Kind != kind {
			continue
		}
		e := b.erases[blk]
		if info.Invalid > bestInvalid || (info.Invalid == bestInvalid && e < bestErases) {
			best, bestInvalid, bestErases = blk, info.Invalid, e
		}
	}
	return best
}

// SealedBlocks calls fn for every sealed block.
func (b *Base) SealedBlocks(fn func(blk int, info *BlockInfo)) {
	for blk := range b.Info {
		if b.Info[blk].State == bsSealed {
			fn(blk, &b.Info[blk])
		}
	}
}

// EraseBlock erases blk, clears its validity bits, returns it to the free
// pool, and counts the erase toward GC work and the wear-leveling interval.
//
// An erase failure retires blk as a grown bad block: validity is cleared,
// the BST entry goes bsBad, and the block never re-enters the free pool.
// Retirement is transparent to callers (the erase "succeeded" but freed
// nothing); the caller's reclamation loop simply moves to the next victim.
func (b *Base) EraseBlock(blk int, at vclock.Time) (vclock.Time, error) {
	done, err := b.Arr.Erase(blk, at)
	if err != nil {
		if errors.Is(err, fault.ErrEraseFail) {
			ps := b.P.Flash.PagesPerBlock
			base := blk * ps
			for off := 0; off < ps; off++ {
				b.PVT[base+off] = false
			}
			b.Info[blk] = BlockInfo{State: bsBad, Kind: flash.KindBad, Invalid: ps, Fill: ps}
			b.GrownBadBlocks++
			return done, nil
		}
		return at, err
	}
	base := blk * b.P.Flash.PagesPerBlock
	for off := 0; off < b.P.Flash.PagesPerBlock; off++ {
		b.PVT[base+off] = false
	}
	b.GC.Erases++
	b.erasesSinceWL++
	b.erases[blk]++
	b.releaseBlock(blk)
	return done, nil
}

// AllocDedicated pops a free block (preferring channel chHint) for a
// dedicated purpose such as TimeSSD's delta blocks. Returns -1 when the
// free pool is empty. The block starts in the active state.
func (b *Base) AllocDedicated(kind flash.PageKind, chHint int) int {
	return b.allocBlock(chHint, kind)
}

// ProgramDedicated appends a page to a dedicated block allocated with
// AllocDedicated, maintaining fill/validity bookkeeping. sealed reports
// whether the block just filled up (the owner should allocate a new one).
//
// A program failure burns the page: fill/invalid are recorded (sealing the
// block if the burned page was its last) and fault.ErrProgramFail is
// returned with the post-attempt completion time, so the owner can retry on
// the same block or allocate a fresh one when sealed.
func (b *Base) ProgramDedicated(blk int, data []byte, oob flash.OOB, at vclock.Time) (ppa flash.PPA, done vclock.Time, sealed bool, err error) {
	ppa, done, err = b.Arr.Program(blk, data, oob, at)
	if err != nil {
		if errors.Is(err, fault.ErrProgramFail) {
			b.ProgramFailures++
			b.Info[blk].Fill++
			b.Info[blk].Invalid++
			if b.Info[blk].Fill == b.P.Flash.PagesPerBlock {
				b.Info[blk].State = bsSealed
				sealed = true
			}
			return flash.NullPPA, done, sealed, err
		}
		return flash.NullPPA, at, false, err
	}
	b.Info[blk].Fill++
	b.Info[blk].Valid++
	b.PVT[ppa] = true
	if b.Info[blk].Fill == b.P.Flash.PagesPerBlock {
		b.Info[blk].State = bsSealed
		sealed = true
	}
	return ppa, done, sealed, nil
}

// WearCheckDue reports whether enough erases have happened to warrant a
// wear-leveling pass, resetting the interval counter when it fires.
func (b *Base) WearCheckDue() bool {
	if b.erasesSinceWL < b.P.WearCheckEvery {
		return false
	}
	b.erasesSinceWL = 0
	return true
}

// ColdBlock picks the sealed block with the lowest erase count whose data
// is fully valid (cold data), restricted by keep. Returns -1 if none.
func (b *Base) ColdBlock(keep func(blk int) bool) int {
	best, bestErases := -1, int(^uint(0)>>1)
	for blk := range b.Info {
		info := &b.Info[blk]
		if info.State != bsSealed || info.Valid == 0 {
			continue
		}
		if keep != nil && !keep(blk) {
			continue
		}
		if e := b.erases[blk]; e < bestErases {
			best, bestErases = blk, e
		}
	}
	return best
}

// AdoptedBlock describes one in-use block discovered by a mount-time scan.
// Adopted blocks must be full (the rebuilder pads partially-written blocks
// closed before adoption, as firmware does after a crash).
type AdoptedBlock struct {
	Blk     int
	Kind    flash.PageKind
	Valid   int
	Invalid int
	// Bad marks a grown bad block rediscovered by the scan (every page
	// KindBad): it is re-retired instead of rejoining service.
	Bad bool
}

// Adopt installs BST entries for scanned blocks and rebuilds the free pool
// from the remainder. The caller must already have set the PVT bits that
// justify each block's Valid count.
func (b *Base) Adopt(blocks []AdoptedBlock) error {
	ps := b.P.Flash.PagesPerBlock
	inUse := make(map[int]bool, len(blocks))
	for _, ab := range blocks {
		if ab.Blk < 0 || ab.Blk >= len(b.Info) {
			return fmt.Errorf("ftl: adopt out-of-range block %d", ab.Blk)
		}
		if inUse[ab.Blk] {
			return fmt.Errorf("ftl: block %d adopted twice", ab.Blk)
		}
		if got := b.Arr.WritePtr(ab.Blk); got != ps {
			return fmt.Errorf("ftl: adopting partially-written block %d (%d/%d pages)", ab.Blk, got, ps)
		}
		if ab.Valid+ab.Invalid != ps {
			return fmt.Errorf("ftl: block %d counts %d+%d != %d", ab.Blk, ab.Valid, ab.Invalid, ps)
		}
		inUse[ab.Blk] = true
		if ab.Bad {
			b.Info[ab.Blk] = BlockInfo{State: bsBad, Kind: flash.KindBad, Invalid: ps, Fill: ps}
			b.GrownBadBlocks++
			continue
		}
		b.Info[ab.Blk] = BlockInfo{State: bsSealed, Kind: ab.Kind, Valid: ab.Valid, Invalid: ab.Invalid, Fill: ps}
	}
	// Rebuild the free pool from everything not adopted.
	for ch := range b.freeByCh {
		b.freeByCh[ch] = blockQueue{}
	}
	b.freeCount = 0
	for blk := 0; blk < b.P.Flash.TotalBlocks(); blk++ {
		if inUse[blk] {
			continue
		}
		if got := b.Arr.WritePtr(blk); got != 0 {
			return fmt.Errorf("ftl: unadopted block %d has %d programmed pages", blk, got)
		}
		b.Info[blk] = BlockInfo{State: bsFree, Kind: flash.KindFree}
		b.freeByCh[b.Arr.ChannelOfBlock(blk)].push(blk)
		b.freeCount++
	}
	return nil
}

// MigrateValidPages moves every valid page of blk to the GC frontier,
// updating the AMT from each page's OOB reverse mapping. OOB metadata
// (including back-pointers) is copied verbatim, so version chains survive
// relocation of their valid head. GC counters are charged. If onRelocated
// is non-nil it is called with each source PPA vacated by the migration —
// TimeSSD marks these reclaimable so a Bloom-filter false positive cannot
// mistake a relocation shadow for a retained version.
func (b *Base) MigrateValidPages(blk int, at vclock.Time, onRelocated ...func(flash.PPA)) (vclock.Time, error) {
	ps := b.P.Flash.PagesPerBlock
	for off := 0; off < ps && b.Info[blk].Valid > 0; off++ {
		ppa := b.Arr.AddrOf(blk, off)
		if !b.PVT[ppa] {
			continue
		}
		data, oob, done, err := b.Arr.Read(ppa, at)
		if err != nil {
			if errors.Is(err, flash.ErrReadFailed) {
				// The page is unrecoverable: count the loss, drop it from
				// the valid set so the erase can proceed.
				b.ReadFailures++
				b.PVT[ppa] = false
				b.Info[blk].Valid--
				b.Info[blk].Invalid++
				at = done
				continue
			}
			return at, err
		}
		b.GC.Reads++
		at = done
		newPPA, done, err := b.AppendPage(b.gcFrontier(), oob.Kind, data, oob, at)
		if err != nil {
			return at, err
		}
		b.GC.Writes++
		at = done
		b.PVT[ppa] = false
		b.Info[blk].Valid--
		b.Info[blk].Invalid++
		if oob.Kind == flash.KindData {
			b.AMT[oob.LPA] = newPPA
		}
		for _, fn := range onRelocated {
			fn(ppa)
		}
	}
	return at, nil
}

// WearImbalanced reports whether the erase-count spread exceeds WearDelta.
func (b *Base) WearImbalanced() bool {
	min, max := b.Arr.WearSpread()
	return max-min > b.P.WearDelta
}

// WriteAmplification returns flash programs / host page writes.
func (b *Base) WriteAmplification() float64 {
	if b.HostPageWrites == 0 {
		return 0
	}
	return float64(b.Arr.Stats().Programs) / float64(b.HostPageWrites)
}

// Counters assembles the base FTL's share of the canonical counter
// surface: host command counts, flash micro-operation totals, and GC
// work. TimeSSD layers its retention counters on top (core.Counters);
// every legacy stats type is a view of the result.
func (b *Base) Counters() obs.Counters {
	fs := b.Arr.Stats()
	return obs.Counters{
		HostPageWrites: b.HostPageWrites,
		HostPageReads:  b.HostPageReads,
		TrimOps:        b.TrimOps,
		FlashReads:     fs.Reads,
		FlashPrograms:  fs.Programs,
		FlashErases:    fs.Erases,
		GCRuns:         b.GC.Runs,
		GCReads:        b.GC.Reads,
		GCWrites:       b.GC.Writes,
		GCErases:       b.GC.Erases,
		GCDeltaOps:     b.GC.DeltaOps,
		ReadFailures:   b.ReadFailures,
	}
}
