package trace

import (
	"bytes"
	"testing"

	"almanac/internal/core"
	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/lzf"
	"almanac/internal/vclock"
)

func baseSpec() Spec {
	return Spec{
		Name:        "t",
		Seed:        1,
		Requests:    2000,
		Duration:    vclock.Hour,
		WriteRatio:  0.7,
		Footprint:   4096,
		AvgPages:    4,
		SeqProb:     0.2,
		HotFraction: 0.1,
		HotAccess:   0.7,
		BurstLen:    16,
		BurstGap:    vclock.Millisecond,
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	reqs, err := Generate(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2000 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	var prev vclock.Time
	writes := 0
	for i, r := range reqs {
		if r.At < prev {
			t.Fatalf("request %d not time-ordered", i)
		}
		prev = r.At
		if r.Pages < 1 {
			t.Fatalf("request %d has %d pages", i, r.Pages)
		}
		if r.LPA+uint64(r.Pages) > 4096 {
			t.Fatalf("request %d outside footprint: %d+%d", i, r.LPA, r.Pages)
		}
		if r.Op == OpWrite || r.Op == OpTrim {
			writes++
		}
	}
	ratio := float64(writes) / float64(len(reqs))
	if ratio < 0.6 || ratio > 0.8 {
		t.Fatalf("write ratio %.2f, want ≈0.7", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(baseSpec())
	b, _ := Generate(baseSpec())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between runs", i)
		}
	}
}

func TestGenerateSkew(t *testing.T) {
	s := baseSpec()
	s.SeqProb = 0
	reqs, _ := Generate(s)
	hotPages := uint64(float64(s.Footprint) * s.HotFraction)
	hot := 0
	for _, r := range reqs {
		if r.LPA < hotPages {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if frac < 0.55 || frac > 0.85 {
		t.Fatalf("hot access fraction %.2f, want ≈0.7", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	s := baseSpec()
	s.Requests = 0
	if _, err := Generate(s); err == nil {
		t.Fatal("zero requests accepted")
	}
	s = baseSpec()
	s.Footprint = 0
	if _, err := Generate(s); err == nil {
		t.Fatal("zero footprint accepted")
	}
	s = baseSpec()
	s.WriteRatio = 1.5
	if _, err := Generate(s); err == nil {
		t.Fatal("bad write ratio accepted")
	}
}

func TestProlong(t *testing.T) {
	reqs, _ := Generate(baseSpec())
	long := Prolong(reqs, 3, 4096, 9)
	if len(long) != 3*len(reqs) {
		t.Fatalf("prolonged to %d requests", len(long))
	}
	span := reqs[len(reqs)-1].At
	// Second copy starts after the first ends.
	if long[len(reqs)].At <= span {
		t.Fatal("duplicated trace does not extend in time")
	}
	// Addresses stay within the footprint.
	for i, r := range long {
		if r.LPA+uint64(r.Pages) > 4096 {
			t.Fatalf("prolonged request %d escapes footprint", i)
		}
	}
	// Addresses in the second copy are shifted relative to the first.
	shifted := false
	for i := 0; i < len(reqs); i++ {
		if long[len(reqs)+i].LPA != reqs[i].LPA {
			shifted = true
			break
		}
	}
	if !shifted {
		t.Fatal("prolongation did not mutate addresses")
	}
}

func TestNamedSpecs(t *testing.T) {
	for _, name := range AllNames() {
		s, err := NamedSpec(name, 10000, 7, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(reqs) == 0 {
			t.Fatalf("%s: empty", name)
		}
		span := reqs[len(reqs)-1].At.Sub(reqs[0].At)
		if span < 5*vclock.Day {
			t.Fatalf("%s: trace spans only %v, want ≈7 days", name, span)
		}
	}
	if _, err := NamedSpec("nope", 100, 1, 100, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestClassOf(t *testing.T) {
	if c, _ := ClassOf("hm"); c != ClassMSR {
		t.Fatal("hm not MSR")
	}
	if c, _ := ClassOf("webmail"); c != ClassFIU {
		t.Fatal("webmail not FIU")
	}
	if _, err := ClassOf("x"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestGenerateSequential: with SeqProb 1 every request starts where the
// one before it ended, unless that would run past the footprint.
func TestGenerateSequential(t *testing.T) {
	s := baseSpec()
	s.SeqProb = 1
	reqs, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		prevEnd := reqs[i-1].LPA + uint64(reqs[i-1].Pages)
		if prevEnd+uint64(reqs[i].Pages) < s.Footprint && reqs[i].LPA != prevEnd {
			t.Fatalf("request %d at %d, want %d", i, reqs[i].LPA, prevEnd)
		}
	}
}

func TestContentSimilarRatio(t *testing.T) {
	g := NewContentGen(4096, ContentSimilar, 3)
	g.MeanRatio = 0.2
	// Measure the actual delta-compression ratio between versions.
	var c lzf.Compressor
	var sum float64
	n := 40
	for i := 0; i < n; i++ {
		lpa := uint64(i)
		old := g.NextVersion(lpa)
		ref := g.NextVersion(lpa)
		_, payload := delta.EncodeWith(&c, nil, old, ref)
		sum += float64(len(payload)) / 4096
	}
	avg := sum / float64(n)
	if avg < 0.08 || avg > 0.4 {
		t.Fatalf("measured delta ratio %.3f, want ≈0.2", avg)
	}
}

func TestContentReproducible(t *testing.T) {
	g1 := NewContentGen(512, ContentSimilar, 5)
	g2 := NewContentGen(512, ContentSimilar, 5)
	for v := 0; v < 5; v++ {
		a := g1.NextVersion(7)
		b := g2.NextVersion(7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("version %d differs at byte %d", v, i)
			}
		}
	}
	if n := g1.ver[g1.global(7)]; n != 5 {
		t.Fatalf("version counter = %d", n)
	}
	// VersionContent reconstructs past versions.
	v2a := g1.VersionContent(7, 2)
	g3 := NewContentGen(512, ContentSimilar, 5)
	g3.NextVersion(7)
	g3.NextVersion(7)
	v2b := g3.NextVersion(7)
	for i := range v2a {
		if v2a[i] != v2b[i] {
			t.Fatal("VersionContent disagrees with NextVersion")
		}
	}
}

// TestStripeMatchesWhole: the stripes of a generator that already counted
// some versions yield, for local LPAs, exactly the bytes the whole
// generator yields for the global LPAs, and Unstripe leaves the same
// version counts behind.
func TestStripeMatchesWhole(t *testing.T) {
	const n, span = 3, 40
	whole := NewContentGen(512, ContentSimilar, 5)
	split := NewContentGen(512, ContentSimilar, 5)
	for lpa := uint64(0); lpa < span; lpa += 2 {
		whole.NextVersion(lpa)
		split.NextVersion(lpa)
	}
	parts := split.Stripe(n)
	for i := 0; i < 200; i++ {
		lpa := uint64(i*7) % span
		if !bytes.Equal(parts[lpa%n].NextVersion(lpa/n), whole.NextVersion(lpa)) {
			t.Fatalf("write %d: stripe bytes of lpa %d differ from the whole generator's", i, lpa)
		}
	}
	split.Unstripe(parts)
	for lpa := uint64(0); lpa < span; lpa++ {
		if got, want := split.ver[split.global(lpa)], whole.ver[whole.global(lpa)]; got != want {
			t.Fatalf("lpa %d: %d versions after Unstripe, want %d", lpa, got, want)
		}
	}
}

func TestContentRandomIncompressible(t *testing.T) {
	g := NewContentGen(4096, ContentRandom, 6)
	old := g.NextVersion(1)
	ref := g.NextVersion(1)
	var c lzf.Compressor
	enc, _ := delta.EncodeWith(&c, nil, old, ref)
	if enc != delta.EncRaw {
		t.Fatalf("random content delta-compressed (%v)", enc)
	}
}

func newTestDevice(t *testing.T) *core.TimeSSD {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReplayAgainstTimeSSD(t *testing.T) {
	d := newTestDevice(t)
	footprint := uint64(d.LogicalPages() / 2)
	gen := NewContentGen(d.PageSize(), ContentSimilar, 7)
	at, err := Fill(d, footprint, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := baseSpec()
	s.Footprint = footprint
	s.Requests = 3000
	reqs, _ := Generate(s)
	// Shift arrivals after the fill.
	for i := range reqs {
		reqs[i].At = reqs[i].At.Add(at.Sub(0) + vclock.Second)
	}
	st, err := Replay(d, reqs, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3000 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AvgResponse() <= 0 {
		t.Fatal("no response time recorded")
	}
	if st.Percentile(0.99) < st.Percentile(0.5) {
		t.Fatal("percentiles inverted")
	}
	if st.Writes == 0 || st.Reads == 0 {
		t.Fatal("op mix missing")
	}
	if st.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestReplayRegularVsTimeSSDComparable(t *testing.T) {
	// The same trace must run on both device types (interface parity).
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	reg, err := ftl.NewRegular(ftl.WithFlash(fc))
	if err != nil {
		t.Fatal(err)
	}
	s := baseSpec()
	s.Footprint = uint64(reg.LogicalPages() / 2)
	s.Requests = 1500
	reqs, _ := Generate(s)
	gen := NewContentGen(reg.PageSize(), ContentSimilar, 8)
	st, err := Replay(reg, reqs, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1500 {
		t.Fatalf("regular SSD replay incomplete: %+v", st)
	}
}

func TestFillThenReadBack(t *testing.T) {
	d := newTestDevice(t)
	gen := NewContentGen(d.PageSize(), ContentSimilar, 9)
	at, err := Fill(d, 64, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lpa := uint64(0); lpa < 64; lpa++ {
		data, _, err := d.Read(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		want := gen.VersionContent(lpa, 0)
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("lpa %d byte %d mismatch", lpa, i)
			}
		}
	}
}
