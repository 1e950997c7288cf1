// Package flash simulates a NAND flash array: channels, chips, planes,
// blocks, and pages, with out-of-band (OOB) metadata per page, per-channel
// timing, and per-block wear accounting.
//
// This is the hardware substrate the paper's TimeSSD firmware runs on
// (Fig. 1). The simulator enforces the two NAND constraints everything
// above depends on: a page can only be programmed after its block is erased
// (out-of-place updates), and pages within a block must be programmed
// sequentially. Latencies are charged against virtual time on the channel
// that owns the target chip, which models the internal parallelism TimeKits
// exploits for fast state queries (§3.9).
//
// Page state is held struct-of-arrays: one flat byte arena for content
// plus parallel slices for per-page length and OOB and per-block write
// pointers and erase counts. The layout keeps the hot Read/Program path
// free of pointer chasing and per-page allocations; an erase only resets
// metadata (stale arena bytes are unreachable because reads are bounded
// by the per-page length).
//
// On unix the content arena lives outside the Go heap (arena_unix.go): the
// kernel backs a page of it when the page is first programmed, and the
// collector paces on the metadata alone. When an Array is collected its
// arena goes to a free list, and the next New of exactly the same size
// reuses it uncleared, which the erase rule above makes safe. Race builds
// keep the arena on the heap, where the race detector can see it.
package flash

import (
	"errors"
	"fmt"

	"almanac/internal/fault"
	"almanac/internal/invariant"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// PPA is a physical page address: a dense index over every page in the
// array. NullPPA marks "no page" (e.g. the end of a version chain).
type PPA uint64

// NullPPA is the nil value for physical page addresses.
const NullPPA = PPA(^uint64(0))

// PageKind tags what a programmed page holds; it is part of the simulated
// OOB metadata so GC and recovery can interpret pages without host help.
type PageKind uint8

const (
	KindFree        PageKind = iota // erased, never programmed
	KindData                        // a user data version
	KindDelta                       // packed compressed deltas
	KindDeltaRaw                    // an incompressible retained version stored whole in a delta block
	KindTranslation                 // FTL translation-table page
	// KindBad marks a dead page: one burned by a program failure, torn by a
	// power cut mid-program, or belonging to a block whose erase failed (a
	// grown bad block stamps every page KindBad — the retirement record the
	// rebuild scan reads back). KindBad content is garbage by definition.
	KindBad
)

func (k PageKind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindData:
		return "data"
	case KindDelta:
		return "delta"
	case KindDeltaRaw:
		return "delta-raw"
	case KindTranslation:
		return "translation"
	case KindBad:
		return "bad"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OOB is the out-of-band metadata stored alongside each flash page. The
// paper stores the reverse-mapping triple here (§3.7): the LPA the page
// maps to, a back-pointer to the previous version's PPA, and the write
// timestamp. Kind distinguishes data, delta, and translation pages.
type OOB struct {
	LPA     uint64
	BackPtr PPA
	TS      vclock.Time
	Kind    PageKind
}

// Config fixes the geometry and the latency model of the array.
type Config struct {
	Channels        int // independent command channels
	ChipsPerChannel int
	PlanesPerChip   int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageSize        int // bytes

	ReadLatency  vclock.Duration // flash page read (cell-to-register + transfer)
	ProgLatency  vclock.Duration // flash page program
	EraseLatency vclock.Duration // flash block erase
}

// DefaultConfig returns an MLC-flavoured geometry small enough for tests
// yet deep enough to exercise GC: 4 channels × 2 chips × 1 plane ×
// 64 blocks × 64 pages × 4 KiB = 128 MiB raw.
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PlanesPerChip:   1,
		BlocksPerPlane:  64,
		PagesPerBlock:   64,
		PageSize:        4096,
		ReadLatency:     75 * vclock.Microsecond,
		ProgLatency:     750 * vclock.Microsecond,
		EraseLatency:    3800 * vclock.Microsecond,
	}
}

// Validate checks that the geometry is usable.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0, c.ChipsPerChannel <= 0, c.PlanesPerChip <= 0,
		c.BlocksPerPlane <= 0, c.PagesPerBlock <= 0, c.PageSize <= 0:
		return errors.New("flash: all geometry fields must be positive")
	}
	return nil
}

// Chips returns the total chip count.
func (c Config) Chips() int { return c.Channels * c.ChipsPerChannel }

// BlocksPerChip returns the number of blocks on one chip.
func (c Config) BlocksPerChip() int { return c.PlanesPerChip * c.BlocksPerPlane }

// TotalBlocks returns the number of blocks in the array.
func (c Config) TotalBlocks() int { return c.Chips() * c.BlocksPerChip() }

// TotalPages returns the number of pages in the array.
func (c Config) TotalPages() int { return c.TotalBlocks() * c.PagesPerBlock }

// TotalBytes returns the raw capacity in bytes.
func (c Config) TotalBytes() int64 { return int64(c.TotalPages()) * int64(c.PageSize) }

// Errors returned by array operations.
// Sequential in-block programming is enforced structurally: Program appends
// at the block's write pointer, so out-of-order programming is impossible.
var (
	ErrBadAddress = errors.New("flash: address out of range")
	ErrReadFree   = errors.New("flash: read of erased page")
	ErrBlockFull  = errors.New("flash: program to full block")
	// ErrReadFailed is an uncorrectable (post-ECC) read error, injected by
	// a fault plan; the FTL must degrade gracefully, never wedge. It is the
	// fault package's typed sentinel, so one errors.Is matches it end to
	// end.
	ErrReadFailed = fault.ErrUncorrectable
)

// Stats aggregates operation counts for the lifetime of the array. The
// fault counters are volatile: image serialization persists only the three
// op counts (the wire/image format is frozen), so they reset across a
// power-cut round trip like the RAM state they describe.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64

	ECCCorrected  int64 // reads whose injected bit errors ECC repaired
	Uncorrectable int64 // reads failed past the ECC budget
	ProgramFails  int64 // page programs failed by the fault plan
	EraseFails    int64 // block erases failed by the fault plan (grown bad blocks)
	TornWrites    int64 // pages torn by a power cut mid-program
}

// Array is the simulated flash device. It is confined to one goroutine at
// a time, like every layer above it (core.TimeSSD documents the same
// contract; array shards own their devices): no Array method is safe for
// concurrent use.
type Array struct {
	cfg Config

	// Struct-of-arrays page state. Page p's content is
	// data[p*PageSize : p*PageSize+dataLen[p]]; oob[p] is its OOB.
	data    []byte // flat content arena, PageSize stride
	dataLen []int32
	oob     []OOB
	// Per-block state, parallel slices indexed by block.
	writePtr []int32 // next page to program; PagesPerBlock when full
	erases   []int32

	busy   []vclock.Time // per-channel horizon
	stats  Stats
	faults *fault.Injector // plan-driven fault model; nil = perfect device
	dead   bool            // a PowerCut fault fired; every op fails until remount
	obsr   *obs.Registry

	// Cached geometry for the hot path.
	pagesPerBlock int
	pageSize      int
	totalPages    int
	chanOfBlock   []uint8 // channel owning each block
}

// New builds an array with all blocks erased.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := cfg.TotalBytes()
	if int64(int(size)) != size {
		return nil, fmt.Errorf("flash: a %d-byte array exceeds the address space", size)
	}
	total := cfg.TotalPages()
	a := &Array{
		cfg:           cfg,
		dataLen:       make([]int32, total),
		oob:           make([]OOB, total),
		writePtr:      make([]int32, cfg.TotalBlocks()),
		erases:        make([]int32, cfg.TotalBlocks()),
		busy:          make([]vclock.Time, cfg.Channels),
		pagesPerBlock: cfg.PagesPerBlock,
		pageSize:      cfg.PageSize,
		totalPages:    total,
		chanOfBlock:   make([]uint8, cfg.TotalBlocks()),
	}
	bpc := cfg.BlocksPerChip()
	for b := range a.chanOfBlock {
		a.chanOfBlock[b] = uint8((b / bpc) % cfg.Channels)
	}
	var err error
	if a.data, err = newArena(a, int(size)); err != nil {
		return nil, fmt.Errorf("flash: %d-byte content arena: %w", size, err)
	}
	return a, nil
}

// pageData returns the programmed content of ppa as a view into the
// arena, capped at the page boundary so appends can never spill into a
// neighbouring page.
func (a *Array) pageData(ppa PPA) []byte {
	off := int(ppa) * a.pageSize
	return a.data[off : off+int(a.dataLen[ppa]) : off+a.pageSize]
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// SetObserver attaches an observability registry; Read, Program and Erase
// record their class, virtual latency and wall cost on it. A nil registry
// (the default) disables recording entirely.
func (a *Array) SetObserver(r *obs.Registry) {
	a.obsr = r
}

// SetFaults arms a plan-driven fault injector; every subsequent Read,
// Program and Erase consults it. A nil injector (the default) restores the
// perfect device. The hot-path cost with no injector is a single pointer
// load under the lock the operation already holds.
func (a *Array) SetFaults(inj *fault.Injector) {
	a.faults = inj
}

// Dead reports whether a PowerCut fault has fired. A dead array fails every
// Read/Program/Erase with fault.ErrPowerCut; WriteImage and the Peek
// accessors still work, modelling the medium's state at the instant power
// was lost. Power comes back by loading the image into a fresh array.
func (a *Array) Dead() bool {
	return a.dead
}

// faultAddr builds the injector's address predicate for a page.
func (a *Array) faultAddr(blockIdx, pageOff int) fault.Addr {
	return fault.Addr{Channel: a.ChannelOfBlock(blockIdx), Block: blockIdx, Page: pageOff}
}

// BlockOf returns the block index containing ppa.
func (a *Array) BlockOf(ppa PPA) int { return int(ppa) / a.pagesPerBlock }

// PageOf returns the page offset of ppa within its block.
func (a *Array) PageOf(ppa PPA) int { return int(ppa) % a.pagesPerBlock }

// AddrOf composes a PPA from block index and page offset.
func (a *Array) AddrOf(blockIdx, pageOff int) PPA {
	return PPA(blockIdx*a.pagesPerBlock + pageOff)
}

// ChannelOfBlock returns the channel that owns blockIdx. Chips are striped
// across channels so consecutive blocks spread over channels at chip
// granularity.
func (a *Array) ChannelOfBlock(blockIdx int) int {
	return int(a.chanOfBlock[blockIdx])
}

func (a *Array) checkPPA(ppa PPA) error {
	if ppa >= PPA(a.totalPages) {
		return fmt.Errorf("%w: ppa %d", ErrBadAddress, ppa)
	}
	return nil
}

// queue is the channel timing rule, the one place it is written: an
// operation of duration d on a channel whose horizon is *h starts at
// max(at, *h) and holds the channel until it completes, the new horizon,
// which it returns.
func queue(h *vclock.Time, at vclock.Time, d vclock.Duration) vclock.Time {
	*h = max(at, *h).Add(d)
	return *h
}

// occupy charges one operation of duration d on channel ch starting no
// earlier than at, and returns the completion time.
func (a *Array) occupy(ch int, at vclock.Time, d vclock.Duration) vclock.Time {
	return queue(&a.busy[ch], at, d)
}

// Horizons appends every channel's busy horizon, the instant it next falls
// idle, to dst. A caller that works out the cost of reads without
// charging them (QueueRead) starts from them, and ChargeReads applies the
// horizons it ends on.
func (a *Array) Horizons(dst []vclock.Time) []vclock.Time {
	return append(dst, a.busy...)
}

// QueueRead is a read's timing with no side effect: a read on channel ch
// issued at at queues on busy, a copy of the channel horizons, exactly as
// Read queues on the array's own, and QueueRead returns its completion.
func (a *Array) QueueRead(busy []vclock.Time, ch int, at vclock.Time) vclock.Time {
	return queue(&busy[ch], at, a.cfg.ReadLatency)
}

// ChargeReads applies a run of reads whose outcome was worked out on a
// copy of the horizons (QueueRead): horizons is where every channel ends,
// and lat holds every read's virtual latency. It sets the horizons, counts
// lat.Count reads and observes their latencies, as that many Reads would,
// splitting the wall time of the apply evenly among them. It does not
// consult the fault plan, so it is only exact while none is armed.
func (a *Array) ChargeReads(horizons []vclock.Time, lat *obs.HistSnapshot) {
	ws := a.obsr.Start()
	if invariant.Enabled {
		invariant.Assert(len(horizons) == len(a.busy), "ChargeReads: %d horizons for %d channels", len(horizons), len(a.busy))
		for ch, h := range horizons {
			invariant.Assert(h >= a.busy[ch], "ChargeReads: channel %d horizon moves back from %v to %v", ch, a.busy[ch], h)
		}
	}
	copy(a.busy, horizons)
	a.stats.Reads += lat.Count
	a.obsr.ObserveBulk(obs.FlashRead, lat, ws)
}

// Charge occupies channel ch for an operation of duration d starting no
// earlier than at, and returns the completion time. It models flash work
// that the simulator does not materialise as stored pages (e.g. the FTL's
// translation-page reads and write-backs under demand-paged mapping).
func (a *Array) Charge(ch int, at vclock.Time, d vclock.Duration) vclock.Time {
	if ch < 0 || ch >= len(a.busy) {
		ch = 0
	}
	return a.occupy(ch, at, d)
}

// Read returns the content and OOB of a programmed page. The returned done
// time is when the channel finishes the operation. The returned data slice
// aliases the array's copy: callers must not mutate it, and it is valid
// until the next mutating operation on the array, never once the array is
// unreachable (its arena then goes to the next New).
func (a *Array) Read(ppa PPA, at vclock.Time) (data []byte, oob OOB, done vclock.Time, err error) {
	if a.dead {
		return nil, OOB{}, at, fault.ErrPowerCut
	}
	if ppa >= PPA(a.totalPages) {
		return nil, OOB{}, at, fmt.Errorf("%w: ppa %d", ErrBadAddress, ppa)
	}
	oob = a.oob[ppa]
	if oob.Kind == KindFree {
		// Bare, not wrapped with the address: running into an erased page is
		// how every version-chain walk ends, so this is not an error path and
		// must not allocate.
		return nil, OOB{}, at, ErrReadFree
	}
	ws := a.obsr.Start()
	a.stats.Reads++
	done = a.occupy(int(a.chanOfBlock[int(ppa)/a.pagesPerBlock]), at, a.cfg.ReadLatency)
	// Recorded unconditionally (injected failures included) so the class
	// count tracks stats.Reads exactly; queueing behind a busy channel is
	// part of the observed virtual latency.
	a.obsr.Observe(obs.FlashRead, int64(done.Sub(at)), ws, true)
	if a.faults != nil {
		switch out := a.faults.Check(fault.OpRead, a.faultAddr(a.BlockOf(ppa), a.PageOf(ppa)), at); out.Decision {
		case fault.DecCorrected:
			a.stats.ECCCorrected++
			a.obsr.Observe(obs.FaultECCCorrected, 0, ws, true)
		case fault.DecUncorrectable:
			a.stats.Uncorrectable++
			a.obsr.Observe(obs.FaultUncorrectable, 0, ws, false)
			return nil, OOB{}, done, fmt.Errorf("%w: ppa %d", ErrReadFailed, ppa)
		case fault.DecSilent:
			// Corruption below the detection floor: a flipped copy is
			// returned as if it were good data.
			cp := append([]byte(nil), a.pageData(ppa)...)
			a.faults.Corrupt(cp, out.Bits)
			return cp, oob, done, nil
		case fault.DecPowerCut:
			a.dead = true
			a.obsr.Observe(obs.FaultPowerCut, 0, ws, false)
			return nil, OOB{}, done, fault.ErrPowerCut
		}
	}
	data = a.pageData(ppa)
	return data, oob, done, nil
}

// PeekPage returns a programmed page's content and OOB without charging
// time or stats. Mount-time scans (firmware state rebuild) and tests use
// it; steady-state firmware paths must use Read.
func (a *Array) PeekPage(ppa PPA) ([]byte, OOB, error) {
	if err := a.checkPPA(ppa); err != nil {
		return nil, OOB{}, err
	}
	if a.oob[ppa].Kind == KindFree {
		return nil, OOB{}, fmt.Errorf("%w: ppa %d", ErrReadFree, ppa)
	}
	cp := append([]byte(nil), a.pageData(ppa)...)
	return cp, a.oob[ppa], nil
}

// PeekOOB returns a programmed page's OOB without charging time or stats.
// It exists for consistency checkers and tests; firmware code paths must
// use Read so their cost is accounted.
func (a *Array) PeekOOB(ppa PPA) (OOB, error) {
	if err := a.checkPPA(ppa); err != nil {
		return OOB{}, err
	}
	if a.oob[ppa].Kind == KindFree {
		return OOB{}, fmt.Errorf("%w: ppa %d", ErrReadFree, ppa)
	}
	return a.oob[ppa], nil
}

// setPage stores content and OOB for ppa in the arena.
func (a *Array) setPage(ppa PPA, data []byte, oob OOB) {
	off := int(ppa) * a.pageSize
	copy(a.data[off:off+len(data)], data)
	a.dataLen[ppa] = int32(len(data))
	a.oob[ppa] = oob
}

// Program appends data to blockIdx at its write pointer and returns the PPA
// it landed on. Programming a full block fails with ErrBlockFull. data is
// copied; it may be shorter than PageSize (zero-padded semantics).
func (a *Array) Program(blockIdx int, data []byte, oob OOB, at vclock.Time) (PPA, vclock.Time, error) {
	if a.dead {
		return NullPPA, at, fault.ErrPowerCut
	}
	if blockIdx < 0 || blockIdx >= len(a.writePtr) {
		return NullPPA, at, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	if len(data) > a.pageSize {
		return NullPPA, at, fmt.Errorf("flash: payload %d exceeds page size %d", len(data), a.pageSize)
	}
	if oob.Kind == KindFree {
		return NullPPA, at, errors.New("flash: programming a page requires a non-free OOB kind")
	}
	wp := int(a.writePtr[blockIdx])
	if wp >= a.pagesPerBlock {
		return NullPPA, at, fmt.Errorf("%w: block %d", ErrBlockFull, blockIdx)
	}
	ws := a.obsr.Start()
	base := PPA(blockIdx * a.pagesPerBlock)
	if invariant.Enabled {
		// Erase-before-program and in-block program order (§3.7's physical
		// premises): everything below the write pointer is programmed,
		// everything at or above it is still erased.
		for off := 0; off < a.pagesPerBlock; off++ {
			kind := a.oob[base+PPA(off)].Kind
			if off < wp {
				invariant.Assert(kind != KindFree,
					"block %d page %d below writePtr %d is erased", blockIdx, off, wp)
			} else {
				invariant.Assert(kind == KindFree,
					"block %d page %d at/above writePtr %d is already programmed (kind %v)",
					blockIdx, off, wp, kind)
			}
		}
	}
	if a.faults != nil {
		switch out := a.faults.Check(fault.OpProgram, a.faultAddr(blockIdx, wp), at); out.Decision {
		case fault.DecProgramFail:
			// The program failed verify: the page is burned (stamped KindBad,
			// dead until the block is erased) and the caller must relocate.
			a.setPage(base+PPA(wp), nil, OOB{Kind: KindBad})
			a.writePtr[blockIdx]++
			a.stats.ProgramFails++
			done := a.occupy(int(a.chanOfBlock[blockIdx]), at, a.cfg.ProgLatency)
			a.obsr.Observe(obs.FaultProgramFail, int64(done.Sub(at)), ws, false)
			return NullPPA, done, fmt.Errorf("%w: block %d page %d", fault.ErrProgramFail, blockIdx, wp)
		case fault.DecPowerCut:
			// Power died mid-program: the page is torn — part of the payload
			// reached the cells, the OOB never committed. It reads back as a
			// dead KindBad page after remount.
			a.setPage(base+PPA(wp), data[:len(data)/2], OOB{Kind: KindBad})
			a.writePtr[blockIdx]++
			a.stats.TornWrites++
			a.dead = true
			a.obsr.Observe(obs.FaultPowerCut, 0, ws, false)
			return NullPPA, at, fault.ErrPowerCut
		case fault.DecNone:
		}
	}
	ppa := base + PPA(wp)
	a.setPage(ppa, data, oob)
	a.writePtr[blockIdx] = int32(wp + 1)
	a.stats.Programs++
	done := a.occupy(int(a.chanOfBlock[blockIdx]), at, a.cfg.ProgLatency)
	a.obsr.Observe(obs.FlashProgram, int64(done.Sub(at)), ws, true)
	return ppa, done, nil
}

// eraseBlockState resets the metadata of every page in blockIdx. The arena
// bytes are left in place: they are unreachable behind dataLen 0 and will
// be overwritten by the next program, which keeps erase O(pages) metadata
// work instead of O(bytes).
func (a *Array) eraseBlockState(blockIdx int, kind PageKind) {
	base := blockIdx * a.pagesPerBlock
	for off := 0; off < a.pagesPerBlock; off++ {
		a.dataLen[base+off] = 0
		a.oob[base+off] = OOB{Kind: kind}
	}
}

// Erase resets every page in blockIdx to free and bumps its erase count.
func (a *Array) Erase(blockIdx int, at vclock.Time) (vclock.Time, error) {
	if a.dead {
		return at, fault.ErrPowerCut
	}
	if blockIdx < 0 || blockIdx >= len(a.writePtr) {
		return at, fmt.Errorf("%w: block %d", ErrBadAddress, blockIdx)
	}
	ws := a.obsr.Start()
	if a.faults != nil {
		switch out := a.faults.Check(fault.OpErase, fault.Addr{Channel: a.ChannelOfBlock(blockIdx), Block: blockIdx, Page: fault.Any}, at); out.Decision {
		case fault.DecEraseFail:
			// The block is worn out: it must be retired as a grown bad
			// block. Every page is stamped KindBad and the write pointer
			// pinned full, so the retirement survives an image round trip
			// and the rebuild scan re-retires the block from OOB alone.
			a.eraseBlockState(blockIdx, KindBad)
			a.writePtr[blockIdx] = int32(a.pagesPerBlock)
			a.stats.EraseFails++
			done := a.occupy(int(a.chanOfBlock[blockIdx]), at, a.cfg.EraseLatency)
			a.obsr.Observe(obs.FaultEraseFail, int64(done.Sub(at)), ws, false)
			return done, fmt.Errorf("%w: block %d", fault.ErrEraseFail, blockIdx)
		case fault.DecPowerCut:
			// Power died before the erase pulse committed: the block keeps
			// its pre-erase contents.
			a.dead = true
			a.obsr.Observe(obs.FaultPowerCut, 0, ws, false)
			return at, fault.ErrPowerCut
		case fault.DecNone:
		}
	}
	a.eraseBlockState(blockIdx, KindFree)
	a.writePtr[blockIdx] = 0
	a.erases[blockIdx]++
	a.stats.Erases++
	if invariant.Enabled {
		base := blockIdx * a.pagesPerBlock
		for off := 0; off < a.pagesPerBlock; off++ {
			invariant.Assert(a.oob[base+off].Kind == KindFree && a.dataLen[base+off] == 0,
				"block %d page %d not free after erase", blockIdx, off)
		}
	}
	done := a.occupy(int(a.chanOfBlock[blockIdx]), at, a.cfg.EraseLatency)
	a.obsr.Observe(obs.FlashErase, int64(done.Sub(at)), ws, true)
	return done, nil
}

// WritePtr returns the next page offset to be programmed in blockIdx.
func (a *Array) WritePtr(blockIdx int) int {
	return int(a.writePtr[blockIdx])
}

// EraseCount returns how many times blockIdx has been erased.
func (a *Array) EraseCount(blockIdx int) int {
	return int(a.erases[blockIdx])
}

// WearSpread returns the minimum and maximum per-block erase counts — the
// quantity wear leveling tries to compress.
func (a *Array) WearSpread() (min, max int) {
	min, max = int(a.erases[0]), int(a.erases[0])
	for i := 1; i < len(a.erases); i++ {
		e := int(a.erases[i])
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}

// Stats returns a snapshot of the operation counters.
func (a *Array) Stats() Stats {
	return a.stats
}
