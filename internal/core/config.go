package core

import (
	"encoding/hex"
	"fmt"
	"math"
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
//
// fields is the one place a key is named: String, ParseConfig and the
// by-key SetField/Field the sweep uses all walk it. Adding a Config field
// means adding its row there; TestConfigFieldsHaveOneKey fails while any
// field has no key or shares one.

// configField is one key of the encoding and a pointer to the Config
// field it names: *int, *float64, *vclock.Duration, *bool or *[]byte.
type configField struct {
	key string
	ptr any
}

// fields lists c's fields in canonical order.
func (c *Config) fields() []configField {
	fc, p := &c.FTL.Flash, &c.FTL
	return []configField{
		// flash geometry + timing
		{"channels", &fc.Channels}, {"chips", &fc.ChipsPerChannel}, {"planes", &fc.PlanesPerChip},
		{"blocks", &fc.BlocksPerPlane}, {"pages", &fc.PagesPerBlock}, {"pagesize", &fc.PageSize},
		{"readlat", &fc.ReadLatency}, {"proglat", &fc.ProgLatency}, {"eraselat", &fc.EraseLatency},
		// base FTL policy
		{"op", &p.OPRatio}, {"gclow", &p.GCLowBlocks}, {"gchigh", &p.GCHighBlocks},
		{"weardelta", &p.WearDelta}, {"wearevery", &p.WearCheckEvery}, {"mapcache", &p.MappingCacheSlots},
		// TimeSSD retention machinery
		{"minret", &c.MinRetention}, {"th", &c.TH}, {"nfixed", &c.NFixed},
		{"deltacost", &c.DeltaCost}, {"idlethresh", &c.IdleThreshold}, {"idlealpha", &c.IdleAlpha},
		{"bfcap", &c.BFCapacity}, {"bffp", &c.BFFalsePositive}, {"bfgroup", &c.BFGroup},
		{"cohort", &c.CohortSegments}, {"key", &c.RetentionKey},
		{"nocompress", &c.DisableCompression}, {"noidlecompress", &c.DisableIdleCompression},
	}
}

// field finds the row for key.
func (c *Config) field(key string) (configField, error) {
	for _, f := range c.fields() {
		if f.key == key {
			return f, nil
		}
	}
	return configField{}, fmt.Errorf("core: unknown config key %q", key)
}

// fieldText is the canonical spelling of the value behind a field pointer.
func fieldText(ptr any) string {
	switch v := ptr.(type) {
	case *int:
		return strconv.Itoa(*v)
	case *float64:
		return strconv.FormatFloat(*v, 'g', -1, 64)
	case *vclock.Duration:
		return v.String()
	case *bool:
		return strconv.FormatBool(*v)
	case *[]byte:
		return hex.EncodeToString(*v)
	}
	panic(fmt.Sprintf("core: config field of type %T", ptr))
}

// parseField stores s, spelled as fieldText spells it, behind a field
// pointer. An empty key decodes to nil.
func parseField(ptr any, s string) (err error) {
	switch v := ptr.(type) {
	case *int:
		*v, err = strconv.Atoi(s)
	case *float64:
		*v, err = strconv.ParseFloat(s, 64)
	case *vclock.Duration:
		*v, err = time.ParseDuration(s)
	case *bool:
		*v, err = strconv.ParseBool(s)
	case *[]byte:
		*v = nil
		if s != "" {
			*v, err = hex.DecodeString(s)
		}
	}
	return err
}

// String renders the canonical text encoding of the configuration. The
// output is deterministic, single-line, and round-trips exactly through
// ParseConfig for every valid Config.
func (c Config) String() string {
	var b strings.Builder
	for i, f := range c.fields() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.key)
		b.WriteByte('=')
		b.WriteString(fieldText(f.ptr))
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
	seen := map[string]bool{}
	for _, tok := range strings.Fields(s) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Config{}, fmt.Errorf("core: config token %q is not key=value", tok)
		}
		if seen[k] {
			return Config{}, fmt.Errorf("core: duplicate config key %q", k)
		}
		seen[k] = true
		if err := c.SetField(k, v); err != nil {
			return Config{}, err
		}
	}
	for _, f := range c.fields() {
		if !seen[f.key] {
			return Config{}, fmt.Errorf("core: config key %q missing", f.key)
		}
	}
	return c, nil
}

// SetField sets the field named key from its text in the canonical
// encoding. On error the field's value is unspecified.
func (c *Config) SetField(key, s string) error {
	f, err := c.field(key)
	if err != nil {
		return err
	}
	if err := parseField(f.ptr, s); err != nil {
		return fmt.Errorf("core: config key %s: %v", key, err)
	}
	return nil
}

// Field returns the canonical text of the field named key, or "" when no
// field has that key.
func (c Config) Field(key string) string {
	f, err := c.field(key)
	if err != nil {
		return ""
	}
	return fieldText(f.ptr)
}

// SetFieldNumber sets the numeric field named key to x: an integer field
// rounds x to the nearest integer and a duration field truncates x
// nanoseconds toward zero, which is how the sweep places Latin-hypercube
// samples between a range's bounds.
func (c *Config) SetFieldNumber(key string, x float64) error {
	f, err := c.field(key)
	if err != nil {
		return err
	}
	switch v := f.ptr.(type) {
	case *int:
		*v = int(math.Round(x))
	case *float64:
		*v = x
	case *vclock.Duration:
		*v = vclock.Duration(x)
	default:
		return fmt.Errorf("core: config key %s is not numeric", key)
	}
	return nil
}

// Validate reports whether the configuration can build a working TimeSSD.
// It subsumes the ad-hoc checks scattered through the constructors so
// sweep specs and parsed configs are rejected with one call, before any
// device state is allocated.
func (c Config) Validate() error {
	if err := c.FTL.Flash.Validate(); err != nil {
		return err
	}
	// A NaN slips past every range check below (each comparison with it
	// is false), and no ratio or span of virtual time may be infinite or
	// negative.
	for _, f := range c.fields() {
		switch v := f.ptr.(type) {
		case *float64:
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				return fmt.Errorf("core: %s=%g is not finite", f.key, *v)
			}
		case *vclock.Duration:
			if *v < 0 {
				return fmt.Errorf("core: %s=%v is negative", f.key, *v)
			}
		}
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
	if c.TH <= 0 {
		return fmt.Errorf("core: GC-overhead threshold TH must be positive, got %g", c.TH)
	}
	if c.NFixed < 1 {
		return fmt.Errorf("core: NFixed must be at least 1, got %d", c.NFixed)
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
