// Package service turns a sharded TimeSSD array into a multi-tenant
// storage service: named volumes carved out of the array's logical
// address space, each with its own tenant key, retention promise, and
// observability registry.
//
// A volume is a contiguous extent of *global* array LPAs. Because the
// array stripes global LPAs across shards (shard = lpa mod N), every
// volume's pages spread over all shards — each tenant gets the full
// device parallelism — while the extents themselves stay disjoint. All
// TimeKits state on the array is keyed by LPA, so a range-scoped
// RollBack over one volume's extent cannot touch another volume's
// version history: per-volume time travel falls out of the address-space
// partition rather than needing per-tenant firmware state.
//
// Retention: the device keeps one physical window (the paper's §3.4
// adaptive window with a guaranteed lower bound). A volume's promise is
// enforced in two directions. Upward, the service raises the array-wide
// MinRetention to the maximum over volume promises, so the physical
// window always covers the strictest volume. Downward, each volume's
// visible window is clamped at its creation time and (when a promise is
// set) at `at - retention`, so a tenant can never read state from before
// its volume existed — including a previous tenant of the same extent.
//
// Concurrency: Service methods take one service mutex for the volume
// table; Volume I/O takes no service lock at all — it translates
// addresses and submits to the array's per-shard worker queues, so
// tenants on different shards proceed in parallel exactly as raw array
// callers do.
package service

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
	"sync"

	"almanac/internal/array"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// Typed failures. The protocol layer (almaproto) maps these to wire
// status codes so remote clients can match them with errors.Is exactly
// as in-process callers do.
var (
	// ErrAuth is returned when a tenant key does not match, or when an
	// operation arrives for a volume the connection never attached.
	ErrAuth = errors.New("service: tenant key rejected")

	// ErrNoVolume is returned for operations on names that do not exist
	// (or volumes deleted while a handle was still held).
	ErrNoVolume = errors.New("service: no such volume")

	// ErrBeforeWindow is returned for time-travel requests that precede
	// the volume's visible window: its creation, its retention promise,
	// or the device's physical window, whichever is latest.
	ErrBeforeWindow = errors.New("service: time precedes the volume's retention window")

	// ErrExists is returned when creating a volume whose name is taken.
	ErrExists = errors.New("service: volume exists")

	// ErrNoSpace is returned when no contiguous extent can hold a new
	// volume.
	ErrNoSpace = errors.New("service: no contiguous capacity for volume")
)

// extent is a free contiguous range of global array LPAs.
type extent struct {
	base  uint64
	pages uint64
}

// Service owns the volume table and the free-extent allocator over one
// array's logical address space.
type Service struct {
	arr *array.Array

	// floor is the operator-configured MinRetention the array was built
	// with; volume promises raise the effective bound but never lower it
	// below the floor.
	floor vclock.Duration

	mu     sync.Mutex
	byName map[string]*Volume
	nextID uint32
	free   []extent // sorted by base, adjacent extents merged
	obsOn  bool
}

// New builds a service over arr. The array's configured MinRetention
// becomes the retention floor no volume promise can lower.
func New(arr *array.Array) *Service {
	return &Service{
		arr:    arr,
		floor:  arr.ShardConfig().MinRetention,
		byName: make(map[string]*Volume),
		nextID: 1,
		free:   []extent{{base: 0, pages: uint64(arr.LogicalPages())}},
	}
}

// Array exposes the backing array (the protocol server routes block I/O
// and array-wide TimeKits through it).
func (s *Service) Array() *array.Array { return s.arr }

// SetObsEnabled switches per-volume histogram recording for existing and
// future volumes.
func (s *Service) SetObsEnabled(on bool) {
	s.mu.Lock()
	vols := s.sortedLocked()
	s.obsOn = on
	s.mu.Unlock()
	for _, v := range vols {
		v.reg.SetEnabled(on)
	}
}

// sortedLocked returns the volumes in name order; the caller holds s.mu.
func (s *Service) sortedLocked() []*Volume {
	names := make([]string, 0, len(s.byName))
	for name := range s.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Volume, 0, len(names))
	for _, name := range names {
		out = append(out, s.byName[name])
	}
	return out
}

// Create carves a new volume of pages logical pages named name out of
// the free space, protected by key. retention is the volume's promise —
// how far back the tenant must be able to travel (0 accepts the device
// default); at stamps the creation in virtual time and becomes the floor
// of the volume's visible window.
func (s *Service) Create(name, key string, pages uint64, retention vclock.Duration, at vclock.Time) (*Volume, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty volume name", ErrNoVolume)
	}
	if pages == 0 {
		return nil, fmt.Errorf("service: volume %q: need at least one page", name)
	}
	if retention < 0 {
		return nil, fmt.Errorf("service: volume %q: negative retention %v", name, retention)
	}
	s.mu.Lock()
	if _, ok := s.byName[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	base, ok := s.allocLocked(pages)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q needs %d pages", ErrNoSpace, name, pages)
	}
	v := &Volume{
		svc:       s,
		id:        s.nextID,
		name:      name,
		key:       key,
		base:      base,
		pages:     pages,
		retention: retention,
		createdAt: at,
		reg:       obs.NewRegistry(),
	}
	s.nextID++
	v.reg.SetEnabled(s.obsOn)
	s.byName[name] = v
	s.mu.Unlock()
	if err := s.applyBound(); err != nil {
		return nil, err
	}
	return v, nil
}

// Delete authenticates and removes a volume. Its pages are trimmed (the
// live content is invalidated so the extent hands no readable data to
// the next tenant) and the extent returns to the allocator. Handles still
// held by other connections fail every subsequent operation with
// ErrNoVolume. The returned time is the virtual completion of the scrub.
func (s *Service) Delete(name, key string, at vclock.Time) (vclock.Time, error) {
	s.mu.Lock()
	v, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return at, fmt.Errorf("%w: %q", ErrNoVolume, name)
	}
	if !keyMatches(v.key, key) {
		s.mu.Unlock()
		return at, fmt.Errorf("%w: volume %q", ErrAuth, name)
	}
	delete(s.byName, name)
	s.mu.Unlock()

	v.dead.Store(true)
	// Scrub: invalidate every mapped page of the extent. History inside
	// the physical window survives (retention is a device-wide promise),
	// but the window clamp of any future volume over this extent hides it.
	done := at
	cmds := make([]*array.Cmd, 0, v.pages)
	for lpa := v.base; lpa < v.base+v.pages; lpa++ {
		cmd := array.TrimCmd(lpa, at)
		if err := s.arr.Submit(cmd); err != nil {
			break // array closed mid-delete; the extent is still reclaimed
		}
		cmds = append(cmds, cmd)
	}
	for _, cmd := range cmds {
		cmd.Wait()
		if cmd.Err == nil && cmd.Done > done {
			done = cmd.Done
		}
	}

	s.mu.Lock()
	s.freeLocked(extent{base: v.base, pages: v.pages})
	s.mu.Unlock()
	return done, s.applyBound()
}

// Attach authenticates against a named volume and returns its handle.
// The same *Volume is shared by every attacher; it is safe for
// concurrent use.
func (s *Service) Attach(name, key string) (*Volume, error) {
	s.mu.Lock()
	v, ok := s.byName[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoVolume, name)
	}
	if !keyMatches(v.key, key) {
		return nil, fmt.Errorf("%w: volume %q", ErrAuth, name)
	}
	return v, nil
}

// Info is the public description of one volume — everything List exposes
// to unauthenticated callers (no keys).
type Info struct {
	ID        uint32
	Name      string
	Pages     uint64
	Retention vclock.Duration
	CreatedAt vclock.Time
}

// List describes every volume in name order.
func (s *Service) List() []Info {
	s.mu.Lock()
	vols := s.sortedLocked()
	s.mu.Unlock()
	out := make([]Info, 0, len(vols))
	for _, v := range vols {
		out = append(out, v.Info())
	}
	return out
}

// ObsSnapshot merges every volume's registry into one snapshot, visiting
// volumes in name order so identical states produce identical snapshots.
// The counters are derived from the vol-* class counts; device-wide
// flash counters live in the array's own snapshot.
func (s *Service) ObsSnapshot() obs.Snapshot {
	s.mu.Lock()
	vols := s.sortedLocked()
	s.mu.Unlock()
	var out obs.Snapshot
	for _, v := range vols {
		out.Merge(v.Snapshot())
	}
	return out
}

// RetentionBound returns the effective array MinRetention: the operator
// floor raised to the strictest volume promise.
func (s *Service) RetentionBound() vclock.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boundLocked()
}

// applyBound brings every shard's MinRetention to the current bound; a
// lifecycle op calls it after changing the volume table. An application is
// one queued command per shard, so concurrent appliers can land theirs in
// any order, and each applier re-reads the bound after its application and
// goes again until the bound it applied is still current. The application
// that lands last on a shard therefore carries the final bound: its re-read
// matched, and a table change after that re-read would have sent an
// application of its own that landed later still.
func (s *Service) applyBound() error {
	bound := s.RetentionBound()
	for {
		if err := s.arr.SetMinRetention(bound); err != nil {
			return err
		}
		cur := s.RetentionBound()
		if cur == bound {
			return nil
		}
		bound = cur
	}
}

func (s *Service) boundLocked() vclock.Duration {
	bound := s.floor
	for _, v := range s.byName {
		if v.retention > bound {
			bound = v.retention
		}
	}
	return bound
}

// allocLocked finds the first free extent that fits (first fit keeps the
// allocator deterministic for a fixed create/delete sequence).
func (s *Service) allocLocked(pages uint64) (uint64, bool) {
	for i, e := range s.free {
		if e.pages < pages {
			continue
		}
		base := e.base
		if e.pages == pages {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = extent{base: e.base + pages, pages: e.pages - pages}
		}
		return base, true
	}
	return 0, false
}

// freeLocked returns an extent to the allocator, merging with adjacent
// free extents.
func (s *Service) freeLocked(e extent) {
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].base > e.base })
	s.free = append(s.free, extent{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = e
	// Merge right then left.
	if i+1 < len(s.free) && s.free[i].base+s.free[i].pages == s.free[i+1].base {
		s.free[i].pages += s.free[i+1].pages
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].base+s.free[i-1].pages == s.free[i].base {
		s.free[i-1].pages += s.free[i].pages
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
}

// keyMatches compares tenant keys in constant time.
func keyMatches(want, got string) bool {
	return subtle.ConstantTimeCompare([]byte(want), []byte(got)) == 1
}
