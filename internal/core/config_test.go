package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

func TestConfigStringRoundTrip(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(ftl.WithFlash(flash.DefaultConfig())),
		func() Config {
			c := DefaultConfig(ftl.WithFlash(flash.DefaultConfig()))
			c.RetentionKey = []byte("0123456789abcdef")
			c.DisableCompression = true
			c.MinRetention = 0
			c.TH = 0.05
			return c
		}(),
		{}, // zero config: syntactically encodable even though invalid
	}
	for i, c := range cfgs {
		s := c.String()
		if strings.ContainsAny(s, "\n\t") {
			t.Fatalf("config %d: encoding is not single-line: %q", i, s)
		}
		got, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("config %d: ParseConfig(%q): %v", i, s, err)
		}
		if got.String() != s {
			t.Fatalf("config %d: round trip changed encoding:\n in: %s\nout: %s", i, s, got.String())
		}
		if string(got.RetentionKey) != string(c.RetentionKey) {
			t.Fatalf("config %d: retention key lost: %q vs %q", i, got.RetentionKey, c.RetentionKey)
		}
	}
}

// TestConfigRoundTripRandom drives the encoder over randomized (valid and
// wild) configs: the decode of every encode must reproduce the identical
// encoding, which is the property the sweep checkpoint keys rely on.
func TestConfigRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		c := DefaultConfig(ftl.WithFlash(flash.DefaultConfig()))
		c.FTL.Flash.Channels = rng.Intn(16) + 1
		c.FTL.Flash.PageSize = 512 << rng.Intn(5)
		c.FTL.OPRatio = float64(rng.Intn(400)) / 1000
		c.FTL.MappingCacheSlots = rng.Intn(1000)
		c.MinRetention = vclock.Duration(rng.Int63n(int64(30 * vclock.Day)))
		c.TH = rng.Float64()
		c.IdleAlpha = rng.Float64()
		c.BFFalsePositive = rng.Float64()/2 + 1e-9
		c.BFGroup = rng.Intn(128) + 1
		c.CohortSegments = rng.Intn(8) + 1
		c.DeltaCost = vclock.Duration(rng.Int63n(int64(vclock.Millisecond)))
		if rng.Intn(2) == 0 {
			key := make([]byte, []int{16, 24, 32}[rng.Intn(3)])
			rng.Read(key)
			c.RetentionKey = key
		}
		s := c.String()
		got, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip changed encoding:\n in: %s\nout: %s", s, got.String())
		}
	}
}

// TestConfigFieldsHaveOneKey walks every leaf field of Config, through
// FTL and FTL.Flash: setting one to a distinct non-zero value must change
// exactly one key's text in String, and no key may answer to two fields.
// A field with no key would still round-trip, but two configs differing
// only in it would share a sweep checkpoint key.
func TestConfigFieldsHaveOneKey(t *testing.T) {
	split := func(c Config) map[string]string {
		kv := map[string]string{}
		for _, tok := range strings.Fields(c.String()) {
			k, v, _ := strings.Cut(tok, "=")
			kv[k] = v
		}
		return kv
	}
	zero := split(Config{})
	owner := map[string]string{} // key -> the field that changed it
	var walk func(path string, typ reflect.Type, index []int)
	walk = func(path string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type, idx)
				continue
			}
			var c Config
			v := reflect.ValueOf(&c).Elem().FieldByIndex(idx)
			n := len(owner) + 2 // distinct per field, never 0 or 1
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(int64(n))
			case reflect.Float64:
				v.SetFloat(float64(n) + 0.5)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Slice:
				v.SetBytes([]byte{byte(n)})
			default:
				t.Fatalf("%s: kind %v has no config encoding", name, v.Kind())
			}
			var changed []string
			for k, val := range split(c) {
				if val != zero[k] {
					changed = append(changed, k)
				}
			}
			slices.Sort(changed)
			if len(changed) != 1 {
				t.Fatalf("%s: setting it changed keys %v, want exactly one", name, changed)
			}
			if prev, ok := owner[changed[0]]; ok {
				t.Fatalf("key %q answers to both %s and %s", changed[0], prev, name)
			}
			owner[changed[0]] = name
		}
	}
	walk("", reflect.TypeOf(Config{}), nil)
	if len(owner) != len(zero) {
		t.Fatalf("%d fields own keys but String writes %d keys", len(owner), len(zero))
	}
}

func TestParseConfigRejects(t *testing.T) {
	valid := DefaultConfig(ftl.WithFlash(flash.DefaultConfig())).String()
	cases := map[string]string{
		"empty":         "",
		"missing key":   strings.TrimPrefix(valid, "channels=4 "),
		"duplicate key": valid + " channels=4",
		"unknown key":   valid + " warp=9",
		"bare token":    valid + " channels",
		"bad int":       strings.Replace(valid, "channels=4", "channels=x", 1),
		"bad duration":  strings.Replace(valid, "minret=72h0m0s", "minret=3fortnights", 1),
		"bad hex key":   strings.Replace(valid, "key=", "key=zz", 1),
	}
	for name, in := range cases {
		if _, err := ParseConfig(in); err == nil {
			t.Errorf("%s: ParseConfig accepted %q", name, in)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(ftl.WithFlash(flash.DefaultConfig()))
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"zero flash":    func(c *Config) { c.FTL.Flash = flash.Config{} },
		"huge page":     func(c *Config) { c.FTL.Flash.PageSize = delta.MaxPageSize + 1 },
		"negative op":   func(c *Config) { c.FTL.OPRatio = -0.1 },
		"gc watermarks": func(c *Config) { c.FTL.GCHighBlocks = c.FTL.GCLowBlocks - 1 },
		"neg mapcache":  func(c *Config) { c.FTL.MappingCacheSlots = -1 },
		"neg retention": func(c *Config) { c.MinRetention = -vclock.Hour },
		"zero TH":       func(c *Config) { c.TH = 0 },
		"zero nfixed":   func(c *Config) { c.NFixed = 0 },
		"neg deltacost": func(c *Config) { c.DeltaCost = -1 },
		"neg idle":      func(c *Config) { c.IdleThreshold = -1 },
		"alpha > 1":     func(c *Config) { c.IdleAlpha = 1.5 },
		"zero bfcap":    func(c *Config) { c.BFCapacity = 0 },
		"bffp = 1":      func(c *Config) { c.BFFalsePositive = 1 },
		"zero bfgroup":  func(c *Config) { c.BFGroup = 0 },
		"zero cohort":   func(c *Config) { c.CohortSegments = 0 },
		"short key":     func(c *Config) { c.RetentionKey = []byte("short") },
		"NaN op":        func(c *Config) { c.FTL.OPRatio = math.NaN() },
		"+Inf op":       func(c *Config) { c.FTL.OPRatio = math.Inf(1) },
		"NaN TH":        func(c *Config) { c.TH = math.NaN() },
		"+Inf TH":       func(c *Config) { c.TH = math.Inf(1) },
		"NaN alpha":     func(c *Config) { c.IdleAlpha = math.NaN() },
		"NaN bffp":      func(c *Config) { c.BFFalsePositive = math.NaN() },
		"neg readlat":   func(c *Config) { c.FTL.Flash.ReadLatency = -75 * vclock.Microsecond },
		"neg proglat":   func(c *Config) { c.FTL.Flash.ProgLatency = -1 },
		"neg eraselat":  func(c *Config) { c.FTL.Flash.EraseLatency = -1 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig(ftl.WithFlash(flash.DefaultConfig()))
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", name)
		}
	}
}

// TestValidateMatchesNew pins Validate to the constructor: any config
// Validate accepts must build (given a sane geometry), and the specific
// constructor rejections are covered by Validate too.
func TestValidateMatchesNew(t *testing.T) {
	c := DefaultConfig(ftl.WithFlash(flash.DefaultConfig()))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(c); err != nil {
		t.Fatalf("validated config failed to build: %v", err)
	}
	c.TH = 0
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted TH=0")
	}
	if _, err := New(c); err == nil {
		t.Fatal("New accepted TH=0")
	}
}
