package core

import (
	"bytes"
	"testing"

	"almanac/internal/flash"
	"almanac/internal/vclock"
)

var testKey = []byte("0123456789abcdef") // AES-128

// cryptoRig writes recognisable versions and forces them into delta
// storage via an idle compression pass.
func cryptoRig(t *testing.T, key []byte) (*TimeSSD, [][]byte, vclock.Time) {
	t.Helper()
	d := newTiny(t, func(c *Config) {
		c.RetentionKey = key
		c.MinRetention = 30 * vclock.Day // nothing may expire
	})
	const lpa = 9
	marker := []byte("TOPSECRET-PLAINTEXT-MARKER")
	var versions [][]byte
	at := vclock.Time(0)
	for i := 0; i < 4; i++ {
		p := make([]byte, d.PageSize())
		copy(p, marker)
		p[len(marker)] = byte('0' + i)
		at = at.Add(vclock.Hour)
		done, err := d.Write(lpa, p, at)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, p)
		at = done
		// Interleave unrelated writes so the blocks holding the secret's
		// versions seal (GC only visits sealed blocks).
		for f := 0; f < 3*d.cfg.FTL.Flash.PagesPerBlock; f++ {
			at = at.Add(vclock.Second)
			if at, err = d.Write(uint64(100+f%50), versionPage(d, uint64(100+f%50), i*1000+f), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The user "securely deletes" the secret: without §3.10's key the
	// versions would survive in delta storage in the clear (no reference
	// version exists after a trim, so they are stored LZF-raw).
	var err error
	if at, err = d.Trim(lpa, at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	// Compress retained versions in an idle period, then sweep GC over the
	// data blocks so the original (necessarily plaintext) copies of the
	// superseded versions are erased — only then is §3.10's protection
	// complete, exactly as on real flash.
	d.observeArrival(at.Add(vclock.Second))
	d.Idle(at.Add(vclock.Second), at.Add(vclock.Minute))
	at = at.Add(vclock.Minute)
	for sweep := 0; sweep < d.cfg.FTL.Flash.TotalBlocks(); sweep++ {
		victim := d.bestVictim()
		if victim < 0 {
			break
		}
		var err error
		at, err = d.reclaimDataBlock(victim, at)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.FlushDeltas(at); err != nil {
		t.Fatal(err)
	}
	return d, versions, at
}

// scanFlashFor reports whether any programmed delta-storage page contains
// needle in the clear.
func scanFlashFor(t *testing.T, d *TimeSSD, needle []byte) bool {
	t.Helper()
	fc := d.cfg.FTL.Flash
	for blk := 0; blk < fc.TotalBlocks(); blk++ {
		for off := 0; off < d.Arr.WritePtr(blk); off++ {
			ppa := d.Arr.AddrOf(blk, off)
			data, oob, err := d.Arr.PeekPage(ppa)
			if err != nil {
				continue
			}
			if oob.Kind != flash.KindDelta && oob.Kind != flash.KindDeltaRaw {
				continue // live data pages are plaintext by physics (§3.10)
			}
			if bytes.Contains(data, needle) {
				return true
			}
		}
	}
	return false
}

func TestRetentionEncryptionHidesPlaintext(t *testing.T) {
	d, _, _ := cryptoRig(t, testKey)
	if d.Counters().DeltasCreated == 0 {
		t.Fatal("nothing was compressed; the test proves nothing")
	}
	if scanFlashFor(t, d, []byte("TOPSECRET")) {
		t.Fatal("plaintext marker visible in delta storage despite retention key")
	}
	// Control: without a key the marker IS visible in delta storage.
	d2, _, _ := cryptoRig(t, nil)
	if !scanFlashFor(t, d2, []byte("TOPSECRET")) {
		t.Fatal("control failed: marker not found even without encryption")
	}
}

func TestRetentionEncryptionRoundTrips(t *testing.T) {
	d, versions, at := cryptoRig(t, testKey)
	vers, _, err := d.Versions(9, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != len(versions) {
		t.Fatalf("retrieved %d versions, want %d", len(vers), len(versions))
	}
	for i, v := range vers {
		want := versions[len(versions)-1-i]
		if !bytes.Equal(v.Data, want) {
			t.Fatalf("version %d corrupt under encryption", i)
		}
		if v.Live {
			t.Fatalf("version %d live after trim", i)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionEncryptionKeyRequired(t *testing.T) {
	d, versions, at := cryptoRig(t, testKey)
	// An attacker images the flash and rebuilds WITHOUT the key: the live
	// head is readable (it was never rewritten), but the retained history
	// in delta storage must not decode.
	cfg := d.cfg
	cfg.RetentionKey = nil
	r, err := Rebuild(d.Arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vers, _, err := r.Versions(9, at)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vers {
		for i, want := range versions {
			if bytes.Equal(v.Data, want) {
				t.Fatalf("retained version %d readable without the key", i)
			}
		}
	}
	// And with the key, the rebuilt device recovers everything.
	cfg.RetentionKey = testKey
	r2, err := Rebuild(d.Arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vers2, _, err := r2.Versions(9, at)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	byTS := map[vclock.Time][]byte{}
	for _, v := range vers2 {
		byTS[v.TS] = v.Data
	}
	for _, want := range versions {
		for _, got := range byTS {
			if bytes.Equal(got, want) {
				found++
				break
			}
		}
	}
	if found != len(versions) {
		t.Fatalf("rebuilt-with-key device recovered %d of %d versions", found, len(versions))
	}
}

func TestRetentionKeyValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.RetentionKey = []byte("short")
	if _, err := New(cfg); err == nil {
		t.Fatal("bad key length accepted")
	}
}

// TestKeylessRebuildVersionAt queries the history of a device rebuilt
// without its retention key (§3.10). Every sealed payload then fails to
// decode, so a walk ends at the first retained delta. VersionAt and
// RollBack must answer as a decoding walk does (Versions, which stops
// there, and a twin forced to decode as it walks), with no error: not
// report the undecodable version, nor charge the chain past it.
func TestKeylessRebuildVersionAt(t *testing.T) {
	d, versions, at := cryptoRig(t, testKey)
	cfg := d.cfg
	cfg.RetentionKey = nil
	var img bytes.Buffer
	if err := d.Arr.WriteImage(&img); err != nil {
		t.Fatal(err)
	}
	rebuild := func() *TimeSSD {
		arr, err := flash.ReadImage(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Rebuild(arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	far := at.Add(30 * vclock.Day)
	for _, when := range []vclock.Time{0, vclock.Time(vclock.Hour), at, far} {
		r, eager := rebuild(), rebuild()
		eager.eagerVersionAt = true
		got, done, err := r.VersionAt(9, when, at)
		if err != nil {
			t.Fatalf("VersionAt(9, %v) on a keyless rebuild: %v", when, err)
		}
		want, wantDone, err := eager.VersionAt(9, when, at)
		if err != nil {
			t.Fatal(err)
		}
		if done != wantDone || (got == nil) != (want == nil) {
			t.Fatalf("VersionAt(9, %v): done %v found %v, decoding walk done %v found %v", when, done, got, wantDone, want)
		}
		if got != nil && (got.TS != want.TS || !bytes.Equal(got.Data, want.Data)) {
			t.Fatalf("VersionAt(9, %v): ts %v, decoding walk ts %v (bytes equal %v)", when, got.TS, want.TS, bytes.Equal(got.Data, want.Data))
		}
		for i, v := range versions {
			if got != nil && bytes.Equal(got.Data, v) {
				t.Fatalf("VersionAt(9, %v) returned retained version %d without the key", when, i)
			}
		}

		r, eager = rebuild(), rebuild()
		eager.eagerVersionAt = true
		done, err = r.RollBack(9, 1, at)
		if err != nil {
			t.Fatalf("RollBack(9, 1) on a keyless rebuild: %v", err)
		}
		if wantDone, err = eager.RollBack(9, 1, at); err != nil || done != wantDone {
			t.Fatalf("RollBack(9, 1): done %v, decoding walk done %v (err %v)", done, wantDone, err)
		}
	}
}
