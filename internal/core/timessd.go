// Package core implements TimeSSD, the paper's primary contribution: an FTL
// that retains past storage states and their lineage inside the device for a
// bounded, workload-adaptive window of time (§3).
//
// TimeSSD layers four mechanisms over the shared FTL base:
//
//   - a retention-duration manager that trades retention window length
//     against GC overhead using the Eq. 1 estimator (§3.4, §3.8);
//   - an expired-data daemon built on a time-segmented Bloom filter chain
//     (§3.5) that decides, during GC, whether an invalid page may be
//     reclaimed;
//   - a delta-compression engine that condenses obsolete versions against
//     the latest version during GC and during predicted idle cycles (§3.6);
//   - a time-travel index: per-LPA reverse chains of data pages (via OOB
//     back-pointers) and delta pages (via the index mapping table), §3.7.
package core

import (
	"crypto/cipher"
	"errors"
	"fmt"

	"almanac/internal/bloom"
	"almanac/internal/delta"
	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// ErrRetentionFull is returned when free space is exhausted but the
// retention window has not yet reached the guaranteed minimum: the paper's
// TimeSSD stops serving I/O rather than break the lower-bound guarantee
// (§3.4), making attacks that flood the device immediately visible.
var ErrRetentionFull = errors.New("timessd: free space exhausted inside minimum retention window")

// Config parameterises a TimeSSD instance.
type Config struct {
	FTL ftl.Params

	// MinRetention is the guaranteed lower bound on the retention window
	// (three days by default, §3.4).
	MinRetention vclock.Duration

	// TH is the GC-overhead threshold of Eq. 1, as a fraction of a page
	// write's cost (0.2 by default, §3.8).
	TH float64

	// NFixed is the number of host page writes per estimation period.
	NFixed int

	// DeltaCost is the CPU cost charged per delta compression (Cdelta).
	DeltaCost vclock.Duration

	// IdleThreshold is the minimum predicted idle time that triggers
	// background compression (10 ms by default, §3.6).
	IdleThreshold vclock.Duration

	// IdleAlpha is the exponential-smoothing factor for idle prediction
	// (0.5 by default).
	IdleAlpha float64

	// BFCapacity is the number of group insertions a Bloom filter absorbs
	// before a new time segment starts; BFFalsePositive is the per-filter
	// false positive target; BFGroup is the page-group granularity N.
	BFCapacity      int
	BFFalsePositive float64
	BFGroup         int

	// CohortSegments is how many consecutive Bloom-filter segments share
	// one set of delta blocks. Each live cohort pins at most one
	// partially-filled delta block, so this bounds delta-storage
	// fragmentation to (live segments / CohortSegments) blocks.
	CohortSegments int

	// RetentionKey, when non-empty (16/24/32 bytes for AES-128/192/256),
	// encrypts every retained version written to delta storage (§3.10):
	// history stays recoverable with the key and unreadable without it.
	RetentionKey []byte

	// DisableCompression turns delta compression off entirely (ablation:
	// retained versions stay as full pages and migrate during GC).
	DisableCompression bool

	// DisableIdleCompression keeps GC-time compression but disables the
	// idle-cycle background pass (ablation).
	DisableIdleCompression bool
}

// DefaultConfig derives TimeSSD defaults from FTL parameters.
func DefaultConfig(p ftl.Params) Config {
	capPerBF := p.Flash.TotalPages() / (16 * 48)
	if capPerBF < 16 {
		capPerBF = 16
	}
	// The estimation period must be small relative to the device, or the
	// control loop reacts too slowly to contain GC overhead.
	nFixed := p.Flash.TotalPages() / 128
	if nFixed < 64 {
		nFixed = 64
	}
	return Config{
		FTL:          p,
		MinRetention: 3 * vclock.Day,
		TH:           0.2,
		NFixed:       nFixed,
		// LZF (de)compression of one 4 KiB page on the embedded controller
		// CPU (the paper's board runs a 400 MHz-class ARM; §5.5.1 attributes
		// TimeSSD's 14.1% recovery overhead to this cost).
		DeltaCost:     120 * vclock.Microsecond,
		IdleThreshold: 10 * vclock.Millisecond,
		IdleAlpha:     0.5,
		BFCapacity:    capPerBF,
		// The chain is probed newest-first across every live filter, so
		// the effective false-positive rate compounds with segment count;
		// a tight per-filter target keeps phantom retention negligible.
		BFFalsePositive: 0.001,
		BFGroup:         16,
		CohortSegments:  cohortSize(p.Flash.TotalBlocks()),
	}
}

// cohortSize balances two fragmentation sources: each live cohort pins one
// partially-filled delta block, but a dropped segment's delta blocks stay
// pinned until its whole cohort retires. Small devices cannot afford the
// latter; large ones cannot afford the former.
func cohortSize(totalBlocks int) int {
	c := totalBlocks / 32
	if c < 1 {
		return 1
	}
	if c > 8 {
		return 8
	}
	return c
}

// segment holds the delta storage of one cohort of consecutive Bloom-filter
// time segments: the open delta buffer, the active delta block, and the
// sealed delta blocks. The paper dedicates delta blocks per BF segment
// (§3.6) so they can be erased whole when the segment retires; grouping a
// few consecutive segments per erase unit preserves that property while
// bounding the internal fragmentation of partially-filled active blocks —
// essential when the device (and hence each block) is a much larger
// fraction of capacity than on a 1 TB drive.
type segment struct {
	buf       *delta.Buffer
	activeBlk int   // current delta block being filled, -1 if none
	blocks    []int // sealed (or partially filled) delta blocks of this cohort
}

// pendingDelta tracks a delta that sits in a segment buffer and has not yet
// been programmed to flash. src is the flash page the delta was compressed
// from: while src is still programmed the version is crash-durable (a
// rebuild re-registers the source as retained), so GC must flush the buffer
// before erasing src's block or a power cut would lose the version.
type pendingDelta struct {
	d   *delta.Delta
	seg *segment
	src flash.PPA
}

// trimRecord remembers the chain head of a trimmed LPA (so lineage survives
// deletion and re-creation) and when the trim happened (a deletion is a
// state update: time-based queries must report it, or recovery would miss
// files that were deleted but never rewritten).
type trimRecord struct {
	head flash.PPA
	ts   vclock.Time
}

// stats accumulates the retention-machinery counters the device itself
// owns; Counters publishes them on the canonical obs.Counters surface.
type stats struct {
	Invalidations     int64 // version invalidations recorded in the BF chain
	DeltasCreated     int64
	DeltaPagesWritten int64
	ExpiredReclaimed  int64 // invalid pages reclaimed after expiry
	WindowDrops       int64 // Bloom filters dropped to shorten the window
	IdleCompressions  int64 // pages compressed during idle cycles
	EstimatorChecks   int64
	EstimatorTrips    int64 // periods in which Eq. 1 exceeded TH
}

// TimeSSD is the time-traveling FTL.
type TimeSSD struct {
	*ftl.Base
	cfg  Config
	zero []byte

	chain       *bloom.Chain
	cohorts     []*segment // delta cohorts indexed by stable cohort id (nil = retired/absent)
	droppedSegs int        // Bloom filters dropped so far (stable-id base)

	// The per-LPA tables are flat slices indexed by LPA (like the base
	// FTL's AMT) so the hot read/write/query paths never touch a map.
	// Absence sentinels: imt[lpa] == NullPPA, pending[lpa].d == nil,
	// trimmed[lpa].head == NullPPA.
	imt     []flash.PPA    // index mapping table: LPA → head delta page
	imtSlot []uint16       // the head delta's slot in that page, +1 (0 = unknown: raw page or old image)
	pending []pendingDelta // newest unflushed delta per LPA
	prt     []bool         // page reclamation table, indexed by PPA
	trimmed []trimRecord   // chain heads + times of trimmed LPAs

	// pendingLPAs lists LPAs that may hold a pending entry so iteration
	// never scans the whole logical space; cleared entries are compacted
	// out on the next forEachPending sweep (pendingListed guards against
	// duplicate list entries across clear/re-set cycles).
	pendingLPAs   []uint64
	pendingListed []bool

	expiredDeltaBlocks []int // delta blocks whose segment retired; erase first

	// Eq. 1 estimator period state.
	periodWrites int64
	baseGC       ftl.GCCounters
	gcEWMA       float64 // smoothed GC cost per host write (ns)

	// Idle predictor state (§3.6).
	lastArrival   vclock.Time
	predictedIdle vclock.Duration
	started       bool

	// §3.10 retained-data encryption (nil when no key is configured).
	aes cipher.Block

	gcAudits int64 // almanacdebug: GC passes since the last deep audit

	// Host-side hot-path state. Devices are single-goroutine (simulated
	// threads share a device serially; array shards own their devices), so
	// the scratch buffers need no locks.
	encScratch  []byte         // delta.Encoder.Encode's output, reused across GC compressions
	enc         delta.Encoder  // every delta encode's compressor and residual page
	gcVers      []chainVersion // compressRetained chain staging, reused across calls
	scan        scanMemo       // UpdatedBetween's record of its last cold walk
	atWalk      chainWalk      // the Versions and VersionAt walk, reused across calls
	dec         delta.Scratch  // every delta decode's staging; counts the residuals applied
	rbPage      []byte         // RollBack's write-back page (rollBackPage)
	faultsArmed bool           // a fault plan is armed: no memo or deferred decode (SetFaults)

	// eagerVersionAt makes VersionAt walk eagerly, rebuilding each version
	// as the walk reaches it, as Versions always does and VersionAt does
	// while a fault plan is armed. Rebuild sets it: a mounted medium may
	// hold payloads another retention key sealed. Tests set it on the
	// reference twin of the deferred walk.
	eagerVersionAt bool

	// gen counts the mutators that can change what a chain walk finds:
	// Write, Trim, Idle, FlushDeltas and SetFaults each bump it on entry
	// (RollBack* mutates through Write and Trim; Rebuild mounts a fresh
	// device). scan is replayed only while it is current.
	gen uint64

	// rebuiltAt is the rebuild instant when this device was mounted by
	// Rebuild (zero for a fresh device): the newest write timestamp found
	// on the medium, where the retention window restarts.
	rebuiltAt vclock.Time

	st  stats
	obs *obs.Registry
}

var _ ftl.Device = (*TimeSSD)(nil)

// New builds a TimeSSD over a fresh flash array. The configuration must
// pass Config.Validate — the one validation surface shared with parsed
// and sweep-generated configs.
func New(cfg Config) (*TimeSSD, error) {
	if cfg.CohortSegments < 1 {
		cfg.CohortSegments = 1 // historical leniency: zero means "one cohort"
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := ftl.NewBase(cfg.FTL)
	if err != nil {
		return nil, err
	}
	t := &TimeSSD{
		Base:  b,
		cfg:   cfg,
		zero:  make([]byte, cfg.FTL.Flash.PageSize),
		chain: bloom.NewChain(cfg.BFCapacity, cfg.BFFalsePositive, cfg.BFGroup, 0),
		prt:   make([]bool, cfg.FTL.Flash.TotalPages()),
	}
	t.chain.EnableMemo(uint64(cfg.FTL.Flash.TotalPages() - 1))
	t.initTables()
	if err := t.initCipher(); err != nil {
		return nil, err
	}
	t.attachObs()
	return t, nil
}

// initTables allocates the flat per-LPA tables with their absence
// sentinels in place.
func (t *TimeSSD) initTables() {
	logical := t.LogicalPages()
	t.imt = make([]flash.PPA, logical)
	t.imtSlot = make([]uint16, logical)
	t.trimmed = make([]trimRecord, logical)
	for i := range t.imt {
		t.imt[i] = flash.NullPPA
		t.trimmed[i].head = flash.NullPPA
	}
	t.pending = make([]pendingDelta, logical)
	t.pendingListed = make([]bool, logical)
}

// setPending records the newest unflushed delta for lpa.
func (t *TimeSSD) setPending(lpa uint64, p pendingDelta) {
	if !t.pendingListed[lpa] {
		t.pendingListed[lpa] = true
		t.pendingLPAs = append(t.pendingLPAs, lpa)
	}
	t.pending[lpa] = p
}

// clearPending drops lpa's pending entry; the stale list slot is compacted
// out by the next forEachPending sweep.
func (t *TimeSSD) clearPending(lpa uint64) {
	t.pending[lpa] = pendingDelta{}
}

// forEachPending visits every live pending entry, compacting cleared list
// slots as it goes. fn may clear entries (including the current one) and
// add new ones; additions are visited in the same sweep.
func (t *TimeSSD) forEachPending(fn func(lpa uint64, p pendingDelta)) {
	dst := 0
	for i := 0; i < len(t.pendingLPAs); i++ {
		lpa := t.pendingLPAs[i]
		if t.pending[lpa].d == nil {
			t.pendingListed[lpa] = false
			continue
		}
		t.pendingLPAs[dst] = lpa
		dst++
		fn(lpa, t.pending[lpa])
	}
	t.pendingLPAs = t.pendingLPAs[:dst]
}

// attachObs creates the device's observability registry (disabled until a
// caller opts in) and shares it with the flash layer so flash
// micro-operations land in the same per-device histograms.
func (t *TimeSSD) attachObs() {
	t.obs = obs.NewRegistry()
	t.Arr.SetObserver(t.obs)
}

// Obs returns the device's observability registry.
func (t *TimeSSD) Obs() *obs.Registry { return t.obs }

// SetFaults arms a plan-driven fault injector on the device's flash array
// (nil restores the perfect device). Core owns the forwarding so host-side
// layers stay behind the firmware boundary. A fault plan decides each read
// as it is issued and may corrupt it silently, so while an injector is
// armed nothing host-side stands in for a read or a decode: time queries
// walk cold instead of replaying the scan memo, and VersionAt decodes as
// it walks (a deferred decode would learn of the failure too late).
func (t *TimeSSD) SetFaults(inj *fault.Injector) {
	t.gen++
	t.faultsArmed = inj != nil
	t.Arr.SetFaults(inj)
}

func (t *TimeSSD) newSegment() *segment {
	return &segment{buf: delta.NewBuffer(t.cfg.FTL.Flash.PageSize), activeBlk: -1}
}

// SetMinRetention replaces the guaranteed retention lower bound at run
// time; negative values clamp to zero. The service layer raises the bound
// to cover the strictest per-volume retention promise (a window can only
// be kept, not recovered, so the device-wide bound must dominate every
// volume's). Raising the bound never drops history: it only stops future
// shortenWindow passes earlier. Like every other mutator this must run on
// the goroutine that owns the device — array shards apply it through the
// worker queue (array.SetMinRetention).
func (t *TimeSSD) SetMinRetention(d vclock.Duration) {
	if d < 0 {
		d = 0
	}
	t.cfg.MinRetention = d
}

// Config returns the instance configuration.
func (t *TimeSSD) Config() Config { return t.cfg }

// Counters assembles the device's canonical counter snapshot: the base
// FTL and flash counters plus the retention-machinery counters.
func (t *TimeSSD) Counters() obs.Counters {
	c := t.Base.Counters()
	c.Invalidations = t.st.Invalidations
	c.DeltasCreated = t.st.DeltasCreated
	c.DeltaPagesWritten = t.st.DeltaPagesWritten
	c.ExpiredReclaimed = t.st.ExpiredReclaimed
	c.WindowDrops = t.st.WindowDrops
	c.IdleCompressions = t.st.IdleCompressions
	c.EstimatorChecks = t.st.EstimatorChecks
	c.EstimatorTrips = t.st.EstimatorTrips
	return c
}

// Snapshot captures the full observability state of the device: counters,
// the retention-window header, and the per-class latency histograms.
func (t *TimeSSD) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Shards:        1,
		WindowStartNS: int64(t.RetentionWindowStart()),
		Segments:      t.Segments(),
		C:             t.Counters(),
		Ops:           t.obs.Ops(),
	}
}

// RetentionWindowStart returns the start of the retrievable time window —
// the creation time of the oldest Bloom filter (Fig. 4).
func (t *TimeSSD) RetentionWindowStart() vclock.Time { return t.chain.WindowStart() }

// RetentionDuration returns the current window length at time now.
func (t *TimeSSD) RetentionDuration(now vclock.Time) vclock.Duration {
	return now.Sub(t.chain.WindowStart())
}

// Segments returns the number of live time segments (Bloom filters).
func (t *TimeSSD) Segments() int { return t.chain.Len() }

// Read returns the current version of lpa. The bytes may alias device
// storage: they are valid until the next mutating operation on the device
// and never once the device is unreachable; copy to keep them.
func (t *TimeSSD) Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	if err := t.CheckLPA(lpa); err != nil {
		return nil, at, err
	}
	ws := t.obs.Start()
	issue := at
	t.observeArrival(at)
	at = t.TouchMapping(lpa, false, at)
	t.HostPageReads++
	ppa := t.AMT[lpa]
	if ppa == flash.NullPPA {
		t.obs.Record(obs.HostRead, lpa, int64(issue), int64(at), ws, true)
		return t.zero, at, nil
	}
	data, _, done, err := t.Arr.Read(ppa, at)
	t.obs.Record(obs.HostRead, lpa, int64(issue), int64(done), ws, err == nil)
	return data, done, err
}

// Write stores a new version of lpa. The superseded version is invalidated
// but retained: its PPA enters the active Bloom filter and it remains
// reachable through the reverse chain until it expires.
func (t *TimeSSD) Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	t.gen++
	if err := t.CheckLPA(lpa); err != nil {
		return at, err
	}
	ws := t.obs.Start()
	req := at
	t.observeArrival(at)
	at = t.TouchMapping(lpa, true, at)
	// The version's timestamp is the host-visible issue time; GC that runs
	// before the program only delays completion, it does not re-date the
	// write.
	issue := at
	at, err := t.ensureFree(at)
	if err != nil {
		t.obs.Record(obs.HostWrite, lpa, int64(req), int64(at), ws, false)
		return at, err
	}
	old := t.AMT[lpa]
	back := old
	if back == flash.NullPPA {
		// Preserve lineage across delete+recreate: the new version links to
		// the chain head remembered at trim time.
		if rec := t.trimmed[lpa]; rec.head != flash.NullPPA {
			back = rec.head
			t.trimmed[lpa] = trimRecord{head: flash.NullPPA}
		}
	}
	oob := flash.OOB{LPA: lpa, BackPtr: back, TS: issue, Kind: flash.KindData}
	ppa, done, err := t.AppendPage(t.HostFrontier(), flash.KindData, data, oob, at)
	if err != nil {
		t.obs.Record(obs.HostWrite, lpa, int64(req), int64(at), ws, false)
		return at, err
	}
	if old != flash.NullPPA {
		t.InvalidatePPA(old)
		t.recordInvalidation(old, issue)
	}
	t.AMT[lpa] = ppa
	t.HostPageWrites++
	t.periodWrites++
	if t.periodWrites >= int64(t.cfg.NFixed) {
		t.runEstimator(done)
	}
	t.obs.Record(obs.HostWrite, lpa, int64(req), int64(done), ws, true)
	return done, nil
}

// Trim invalidates lpa. The deleted version is retained inside the window,
// which is what lets TimeKits recover files deleted by malware.
func (t *TimeSSD) Trim(lpa uint64, at vclock.Time) (vclock.Time, error) {
	t.gen++
	if err := t.CheckLPA(lpa); err != nil {
		return at, err
	}
	ws := t.obs.Start()
	issue := at
	t.observeArrival(at)
	at = t.TouchMapping(lpa, true, at)
	t.TrimOps++
	old := t.AMT[lpa]
	if old != flash.NullPPA {
		t.InvalidatePPA(old)
		t.recordInvalidation(old, at)
		t.AMT[lpa] = flash.NullPPA
		t.trimmed[lpa] = trimRecord{head: old, ts: at}
	}
	t.obs.Record(obs.HostTrim, lpa, int64(issue), int64(at), ws, true)
	return at, nil
}

// recordInvalidation inserts ppa into the active Bloom filter.
func (t *TimeSSD) recordInvalidation(ppa flash.PPA, at vclock.Time) {
	t.st.Invalidations++
	t.chain.Invalidate(uint64(ppa), at)
}

// runEstimator evaluates Eq. 1 over the period that just ended and shortens
// the retention window when GC overhead per user write exceeds TH×Cwrite.
func (t *TimeSSD) runEstimator(now vclock.Time) {
	t.st.EstimatorChecks++
	cur := t.GC
	nr := cur.Reads - t.baseGC.Reads
	nw := cur.Writes - t.baseGC.Writes
	ne := cur.Erases - t.baseGC.Erases
	nd := cur.DeltaOps - t.baseGC.DeltaOps
	fc := t.cfg.FTL.Flash
	cost := float64(nr)*float64(fc.ReadLatency) +
		float64(nw)*float64(fc.ProgLatency) +
		float64(ne)*float64(fc.EraseLatency) +
		float64(nd)*float64(t.cfg.DeltaCost)
	perWrite := cost / float64(t.periodWrites)
	t.baseGC = cur
	t.periodWrites = 0
	// Background work is lumpy (one idle stretch compresses hours of
	// retained data), so the estimate is smoothed before the comparison;
	// a raw per-period spike would shed far more history than the average
	// overhead justifies.
	const alpha = 0.25
	t.gcEWMA = (1-alpha)*t.gcEWMA + alpha*perWrite
	limit := t.cfg.TH * float64(fc.ProgLatency)
	if t.gcEWMA > limit {
		t.st.EstimatorTrips++
		// Shed proportionally to the overshoot ("reclaim some of the
		// oldest invalid data", §3.4), gently.
		drops := int(t.gcEWMA / limit)
		if drops > 4 {
			drops = 4
		}
		for i := 0; i < drops; i++ {
			if !t.shortenWindow(now) {
				break
			}
		}
	}
}

// shortenWindow drops the oldest Bloom filter unless doing so would violate
// the minimum retention guarantee. It returns true if a filter was dropped.
func (t *TimeSSD) shortenWindow(now vclock.Time) bool {
	if t.chain.Len() <= 1 {
		// A single segment can only be retired when no minimum retention is
		// configured: force-sealing it and dropping it empties the whole
		// window (the new active filter starts it afresh at `now`).
		if t.cfg.MinRetention > 0 || !t.chain.SealActive(now) {
			return false
		}
	}
	// The window after the drop would start at the second-oldest filter's
	// creation; refuse if that would leave less than the guaranteed bound.
	next := t.chain.Filter(1).Created
	if now.Sub(next) < t.cfg.MinRetention {
		return false
	}
	if !t.chain.DropOldest() {
		return false
	}
	t.st.WindowDrops++
	t.droppedSegs++
	// Retire every cohort whose last segment has now been dropped: all the
	// versions its delta blocks hold are expired, so the blocks are
	// erasable without migration.
	firstLive := t.droppedSegs / t.cfg.CohortSegments
	for id := 0; id < firstLive && id < len(t.cohorts); id++ {
		if seg := t.cohorts[id]; seg != nil {
			t.retireCohort(id, seg)
		}
	}
	return true
}

// retireCohort schedules a fully-expired cohort's delta blocks for
// immediate erase and discards its unflushed buffer (those versions just
// expired).
func (t *TimeSSD) retireCohort(id int, seg *segment) {
	if seg.activeBlk >= 0 {
		seg.blocks = append(seg.blocks, seg.activeBlk)
		seg.activeBlk = -1
	}
	t.expiredDeltaBlocks = append(t.expiredDeltaBlocks, seg.blocks...)
	seg.blocks = nil
	// Deltas still sitting in the buffer belong to the dropped window; the
	// pending index entries for them must be removed.
	if !seg.buf.Empty() {
		t.forEachPending(func(lpa uint64, p pendingDelta) {
			if p.seg == seg {
				t.clearPending(lpa)
			}
		})
	}
	t.cohorts[id] = nil
}

// ensureFree keeps the free pool above the watermarks, running Algorithm 1
// GC passes and, if space cannot otherwise be found, shortening the window
// down to (but never past) the minimum retention bound. Like the regular
// FTL, reclamation is incremental — a triggering write pays for at most a
// couple of passes unless the pool is nearly exhausted — so the cost of
// retaining history spreads across requests instead of stalling one.
func (t *TimeSSD) ensureFree(at vclock.Time) (vclock.Time, error) {
	if t.FreeBlocks() > t.cfg.FTL.GCLowBlocks {
		return at, nil
	}
	limit := 4 * t.cfg.FTL.Flash.TotalBlocks()
	passes := 0
	for i := 0; t.FreeBlocks() < t.cfg.FTL.GCHighBlocks; i++ {
		if i > limit {
			return at, fmt.Errorf("timessd: GC made no progress after %d passes", limit)
		}
		// Graded budget: the deeper the pool deficit, the more passes this
		// request may pay for — a smooth ramp instead of an emergency cliff.
		budget := 2 + (t.cfg.FTL.GCLowBlocks - t.FreeBlocks())
		if t.FreeBlocks() > 2 && passes >= budget {
			break
		}
		if t.FreeBlocks() <= 2 || t.poorVictims() {
			// Space-critical or reclamation-inefficient: shed retention.
			// Dropping the oldest segment turns its delta blocks into free
			// space at pure erase cost and converts its retained data pages
			// into cheaply reclaimable garbage, avoiding stop-the-world
			// migration storms while still honouring the minimum bound.
			t.shortenWindow(at)
		}
		before := t.FreeBlocks()
		var err error
		at, err = t.collectOnce(at)
		passes++
		if err == nil {
			if t.FreeBlocks() > before {
				continue
			}
			// A pass that frees nothing net means retained data is holding
			// space hostage; fall through to window shortening.
		} else if !errors.Is(err, ftl.ErrDeviceFull) {
			return at, err
		}
		if t.shortenWindow(at) {
			continue
		}
		if t.FreeBlocks() > 0 {
			// Not at the high watermark, but writable: proceed rather than
			// fail while the minimum-retention bound forbids reclaiming.
			return at, nil
		}
		return at, ErrRetentionFull
	}
	if t.FreeBlocks() > t.cfg.FTL.GCLowBlocks && t.WearCheckDue() && t.WearImbalanced() {
		// Foreground: a single swap at most — the batch runs in idle time.
		return t.wearLevel(at, 1)
	}
	return at, nil
}

// wearLevel performs the cold-data swap of §3.8. Delta blocks are excluded
// (their chains must not break); the victim is processed like a GC victim
// so its retained invalid pages are compressed, not lost. A swap migrates
// a whole block of valid data, so it only runs with pool headroom.
func (t *TimeSSD) wearLevel(at vclock.Time, maxSwaps int) (vclock.Time, error) {
	for swaps := 0; swaps < maxSwaps && t.WearImbalanced(); swaps++ {
		if t.FreeBlocks() <= t.cfg.FTL.GCLowBlocks {
			return at, nil
		}
		cold := t.ColdBlock(func(blk int) bool { return t.Info[blk].Kind == flash.KindData })
		if cold < 0 {
			return at, nil
		}
		var err error
		at, err = t.reclaimDataBlock(cold, at)
		if err != nil {
			return at, err
		}
	}
	return at, nil
}
