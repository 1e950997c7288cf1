package core

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"almanac/internal/delta"
	"almanac/internal/vclock"
)

// This file gives Config one unambiguous, stable serialization. The sweep
// engine, its checkpoint files, and the committed SWEEP_N.json artifacts
// all key results by Config.String(), so two configs are interchangeable
// exactly when their encodings are byte-equal, and a design point written
// by one binary can be resumed or diffed by another. The format is a
// single line of space-separated key=value pairs in a fixed field order;
// ParseConfig is strict (every key exactly once, no unknowns) so that
// String∘ParseConfig and ParseConfig∘String are both identities.

// configFields is the canonical field order. Adding a Config field means
// adding a row here (and to the encoder/decoder below) — the round-trip
// test fails loudly if the three fall out of sync.
var configFields = []string{
	// flash geometry + timing
	"channels", "chips", "planes", "blocks", "pages", "pagesize",
	"readlat", "proglat", "eraselat",
	// base FTL policy
	"op", "gclow", "gchigh", "weardelta", "wearevery", "mapcache",
	// TimeSSD retention machinery
	"minret", "th", "nfixed", "deltacost", "idlethresh", "idlealpha",
	"bfcap", "bffp", "bfgroup", "cohort", "key", "nocompress",
	"noidlecompress",
}

func fmtDur(d vclock.Duration) string { return time.Duration(d).String() }
func fmtF(f float64) string           { return strconv.FormatFloat(f, 'g', -1, 64) }

// String renders the canonical text encoding of the configuration. The
// output is deterministic, single-line, and round-trips exactly through
// ParseConfig for every valid Config.
func (c Config) String() string {
	fc := c.FTL.Flash
	vals := map[string]string{
		"channels": strconv.Itoa(fc.Channels),
		"chips":    strconv.Itoa(fc.ChipsPerChannel),
		"planes":   strconv.Itoa(fc.PlanesPerChip),
		"blocks":   strconv.Itoa(fc.BlocksPerPlane),
		"pages":    strconv.Itoa(fc.PagesPerBlock),
		"pagesize": strconv.Itoa(fc.PageSize),
		"readlat":  fmtDur(fc.ReadLatency),
		"proglat":  fmtDur(fc.ProgLatency),
		"eraselat": fmtDur(fc.EraseLatency),

		"op":        fmtF(c.FTL.OPRatio),
		"gclow":     strconv.Itoa(c.FTL.GCLowBlocks),
		"gchigh":    strconv.Itoa(c.FTL.GCHighBlocks),
		"weardelta": strconv.Itoa(c.FTL.WearDelta),
		"wearevery": strconv.Itoa(c.FTL.WearCheckEvery),
		"mapcache":  strconv.Itoa(c.FTL.MappingCacheSlots),

		"minret":         fmtDur(c.MinRetention),
		"th":             fmtF(c.TH),
		"nfixed":         strconv.Itoa(c.NFixed),
		"deltacost":      fmtDur(c.DeltaCost),
		"idlethresh":     fmtDur(c.IdleThreshold),
		"idlealpha":      fmtF(c.IdleAlpha),
		"bfcap":          strconv.Itoa(c.BFCapacity),
		"bffp":           fmtF(c.BFFalsePositive),
		"bfgroup":        strconv.Itoa(c.BFGroup),
		"cohort":         strconv.Itoa(c.CohortSegments),
		"key":            hex.EncodeToString(c.RetentionKey),
		"nocompress":     strconv.FormatBool(c.DisableCompression),
		"noidlecompress": strconv.FormatBool(c.DisableIdleCompression),
	}
	var b strings.Builder
	for i, k := range configFields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(vals[k])
	}
	return b.String()
}

// ParseConfig decodes the canonical text encoding produced by
// Config.String. It is strict: every canonical key must appear exactly
// once and nothing else may. The decoded config is syntactically complete
// but not necessarily usable — call Validate (or core.New, which
// validates) before building a device from untrusted text.
func ParseConfig(s string) (Config, error) {
	var c Config
	seen := make(map[string]bool, len(configFields))
	canonical := make(map[string]bool, len(configFields))
	for _, k := range configFields {
		canonical[k] = true
	}

	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	pInt := func(v string) int {
		n, err := strconv.Atoi(v)
		if err != nil {
			fail("core: bad integer %q: %v", v, err)
		}
		return n
	}
	pF := func(v string) float64 {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			fail("core: bad float %q: %v", v, err)
		}
		return f
	}
	pDur := func(v string) vclock.Duration {
		d, err := time.ParseDuration(v)
		if err != nil {
			fail("core: bad duration %q: %v", v, err)
		}
		return vclock.Duration(d)
	}

	for _, tok := range strings.Fields(s) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Config{}, fmt.Errorf("core: config token %q is not key=value", tok)
		}
		if !canonical[k] {
			return Config{}, fmt.Errorf("core: unknown config key %q", k)
		}
		if seen[k] {
			return Config{}, fmt.Errorf("core: duplicate config key %q", k)
		}
		seen[k] = true
		switch k {
		case "channels":
			c.FTL.Flash.Channels = pInt(v)
		case "chips":
			c.FTL.Flash.ChipsPerChannel = pInt(v)
		case "planes":
			c.FTL.Flash.PlanesPerChip = pInt(v)
		case "blocks":
			c.FTL.Flash.BlocksPerPlane = pInt(v)
		case "pages":
			c.FTL.Flash.PagesPerBlock = pInt(v)
		case "pagesize":
			c.FTL.Flash.PageSize = pInt(v)
		case "readlat":
			c.FTL.Flash.ReadLatency = pDur(v)
		case "proglat":
			c.FTL.Flash.ProgLatency = pDur(v)
		case "eraselat":
			c.FTL.Flash.EraseLatency = pDur(v)
		case "op":
			c.FTL.OPRatio = pF(v)
		case "gclow":
			c.FTL.GCLowBlocks = pInt(v)
		case "gchigh":
			c.FTL.GCHighBlocks = pInt(v)
		case "weardelta":
			c.FTL.WearDelta = pInt(v)
		case "wearevery":
			c.FTL.WearCheckEvery = pInt(v)
		case "mapcache":
			c.FTL.MappingCacheSlots = pInt(v)
		case "minret":
			c.MinRetention = pDur(v)
		case "th":
			c.TH = pF(v)
		case "nfixed":
			c.NFixed = pInt(v)
		case "deltacost":
			c.DeltaCost = pDur(v)
		case "idlethresh":
			c.IdleThreshold = pDur(v)
		case "idlealpha":
			c.IdleAlpha = pF(v)
		case "bfcap":
			c.BFCapacity = pInt(v)
		case "bffp":
			c.BFFalsePositive = pF(v)
		case "bfgroup":
			c.BFGroup = pInt(v)
		case "cohort":
			c.CohortSegments = pInt(v)
		case "key":
			if v != "" {
				key, err := hex.DecodeString(v)
				if err != nil {
					fail("core: bad retention key hex %q: %v", v, err)
				}
				c.RetentionKey = key
			}
		case "nocompress":
			b, err := strconv.ParseBool(v)
			if err != nil {
				fail("core: bad bool %q: %v", v, err)
			}
			c.DisableCompression = b
		case "noidlecompress":
			b, err := strconv.ParseBool(v)
			if err != nil {
				fail("core: bad bool %q: %v", v, err)
			}
			c.DisableIdleCompression = b
		}
		if firstErr != nil {
			return Config{}, firstErr
		}
	}
	for _, k := range configFields {
		if !seen[k] {
			return Config{}, fmt.Errorf("core: config key %q missing", k)
		}
	}
	return c, nil
}

// Validate reports whether the configuration can build a working TimeSSD.
// It subsumes the ad-hoc checks scattered through the constructors so
// sweep specs and parsed configs are rejected with one call, before any
// device state is allocated.
func (c Config) Validate() error {
	if err := c.FTL.Flash.Validate(); err != nil {
		return err
	}
	if c.FTL.Flash.PageSize > delta.MaxPageSize {
		return fmt.Errorf("core: page size %d exceeds %d, the largest a delta entry's 16-bit length and slot can describe",
			c.FTL.Flash.PageSize, delta.MaxPageSize)
	}
	if c.FTL.OPRatio < 0 {
		return fmt.Errorf("core: negative over-provisioning ratio %g", c.FTL.OPRatio)
	}
	if c.FTL.GCLowBlocks < 1 || c.FTL.GCHighBlocks < c.FTL.GCLowBlocks {
		return fmt.Errorf("core: bad GC watermarks low=%d high=%d", c.FTL.GCLowBlocks, c.FTL.GCHighBlocks)
	}
	if c.FTL.MappingCacheSlots < 0 {
		return fmt.Errorf("core: negative mapping-cache slots %d", c.FTL.MappingCacheSlots)
	}
	if c.MinRetention < 0 {
		return fmt.Errorf("core: negative minimum retention %v", c.MinRetention)
	}
	if c.TH <= 0 {
		return fmt.Errorf("core: GC-overhead threshold TH must be positive, got %g", c.TH)
	}
	if c.NFixed < 1 {
		return fmt.Errorf("core: NFixed must be at least 1, got %d", c.NFixed)
	}
	if c.DeltaCost < 0 {
		return fmt.Errorf("core: negative delta cost %v", c.DeltaCost)
	}
	if c.IdleThreshold < 0 {
		return fmt.Errorf("core: negative idle threshold %v", c.IdleThreshold)
	}
	if c.IdleAlpha < 0 || c.IdleAlpha > 1 {
		return fmt.Errorf("core: idle-prediction alpha %g outside [0,1]", c.IdleAlpha)
	}
	if c.BFCapacity < 1 {
		return fmt.Errorf("core: Bloom-filter capacity must be at least 1, got %d", c.BFCapacity)
	}
	if c.BFFalsePositive <= 0 || c.BFFalsePositive >= 1 {
		return fmt.Errorf("core: Bloom false-positive target %g outside (0,1)", c.BFFalsePositive)
	}
	if c.BFGroup < 1 {
		return fmt.Errorf("core: Bloom page-group size must be at least 1, got %d", c.BFGroup)
	}
	if c.CohortSegments < 1 {
		return fmt.Errorf("core: cohort size must be at least 1, got %d", c.CohortSegments)
	}
	switch len(c.RetentionKey) {
	case 0, 16, 24, 32:
	default:
		return fmt.Errorf("core: retention key must be 16, 24 or 32 bytes, got %d", len(c.RetentionKey))
	}
	return nil
}
