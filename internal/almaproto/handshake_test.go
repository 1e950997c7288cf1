package almaproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"almanac/internal/service"
	"almanac/internal/vclock"
)

// framed is one whole untagged frame, length prefix and body, for a single
// Write: net.Pipe hands a zero-length Write to no reader, so writeFrame's
// separate body Write of an empty body would never return.
func framed(body raw) []byte { return append(raw{}.u32(uint32(len(body))), body...) }

// TestConcurrentFirstCalls races the first calls on fresh clients: with no
// Identify beforehand, goroutines mix Write, Read, VolList, and VolAttach
// followed by SubmitBatch. Whichever call goes out first sends the
// handshake, the others wait for its answer, and every call succeeds.
func TestConcurrentFirstCalls(t *testing.T) {
	svc := newServiceArray(t)
	srv := NewServiceServer(svc)
	if _, err := svc.Create("first", "k", 16, 0, vclock.Time(vclock.Hour)); err != nil {
		t.Fatal(err)
	}
	const (
		rounds  = 50
		writers = 4
		rawBase = 64 // block LPAs past the volume's extent
	)
	for round := 0; round < rounds; round++ {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeOne(srvEnd)
		c := NewClient(cliEnd)
		at := vclock.Time(vclock.Duration(round+2) * vclock.Hour)

		var wg sync.WaitGroup
		errs := make(chan error, writers+2)
		call := func(f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(); err != nil {
					errs <- err
				}
			}()
		}
		for w := 0; w < writers; w++ {
			lpa := uint64(rawBase + w)
			data := page(c, byte(round*writers+w), 512)
			call(func() error {
				done, err := c.Write(lpa, data, at.Add(vclock.Duration(w)*vclock.Second))
				if err != nil {
					return fmt.Errorf("write %d: %w", lpa, err)
				}
				got, _, err := c.Read(lpa, done)
				if err != nil {
					return fmt.Errorf("read %d: %w", lpa, err)
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("read %d returned other data", lpa)
				}
				return nil
			})
		}
		call(func() error {
			infos, err := c.VolList()
			if err != nil {
				return fmt.Errorf("VolList: %w", err)
			}
			if len(infos) != 1 || infos[0].Name != "first" {
				return fmt.Errorf("VolList: %+v", infos)
			}
			return nil
		})
		call(func() error {
			info, err := c.VolAttach("first", "k", at)
			if err != nil {
				return fmt.Errorf("VolAttach: %w", err)
			}
			lpa, data := uint64(round%16), page(c, byte(round), 512)
			pb, err := c.SubmitBatch(info.ID, []service.BatchOp{
				{Kind: service.KindWrite, LPA: lpa, Data: data, At: at},
				{Kind: service.KindRead, LPA: lpa, At: at.Add(vclock.Millisecond)},
			})
			if err != nil {
				return fmt.Errorf("SubmitBatch: %w", err)
			}
			res, err := pb.Wait()
			if err != nil {
				return fmt.Errorf("batch: %w", err)
			}
			if res[0].Err != nil || res[1].Err != nil || !bytes.Equal(res[1].Data, data) {
				return fmt.Errorf("batch: %v %v", res[0].Err, res[1].Err)
			}
			return nil
		})
		within(t, fmt.Sprintf("round %d", round), wg.Wait)
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		c.Close()
		srvEnd.Close()
	}
}

// TestHandshakeRefusesPreV4 opens connections with every first frame a
// pre-v4 peer could send. Each gets exactly one untagged error frame
// naming v4, then EOF, and ServeOne returns. An Identify announcing a
// version past v4 agrees v4, the smaller of the two, and the connection
// goes on tagged.
func TestHandshakeRefusesPreV4(t *testing.T) {
	srv := NewServiceServer(newServiceArray(t))
	open := func(t *testing.T, first raw) (net.Conn, []byte, <-chan struct{}) {
		t.Helper()
		cliEnd, srvEnd := net.Pipe()
		t.Cleanup(func() { cliEnd.Close(); srvEnd.Close() })
		served := make(chan struct{})
		go func() {
			srv.ServeOne(srvEnd)
			srvEnd.Close() // as Serve does once ServeOne returns
			close(served)
		}()
		if _, err := cliEnd.Write(framed(first)); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(cliEnd)
		if err != nil {
			t.Fatal(err)
		}
		return cliEnd, resp, served
	}

	for _, tc := range []struct {
		name  string
		first raw
	}{
		{"bare Identify", raw{}.u8(uint8(OpIdentify))},
		{"Identify v1", raw{}.u8(uint8(OpIdentify)).u32(1)},
		{"Identify v2", raw{}.u8(uint8(OpIdentify)).u32(2)},
		{"Identify v3", raw{}.u8(uint8(OpIdentify)).u32(3)},
		{"Read", raw{}.u8(uint8(OpRead)).u64(0).t(0)},
		{"empty body", raw{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cliEnd, resp, served := open(t, tc.first)
			d := dec{b: resp}
			err := d.status()
			var re *RemoteError
			if !errors.As(err, &re) || re.Code != StatusError || !strings.Contains(re.Msg, "v4") {
				t.Fatalf("first frame % x answered % x (%v), want an error naming v4", []byte(tc.first), resp, err)
			}
			if d.pos != len(resp) {
				t.Fatalf("refusal carries %d bytes past its message: % x", len(resp)-d.pos, resp)
			}
			if b, err := readFrame(cliEnd); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: frame % x, err %v; want EOF", b, err)
			}
			within(t, "ServeOne after a refusal", func() { <-served })
		})
	}

	for _, v := range []uint32{5, math.MaxUint32} {
		t.Run(fmt.Sprintf("Identify v%d", v), func(t *testing.T) {
			cliEnd, resp, _ := open(t, raw{}.u8(uint8(OpIdentify)).u32(v))
			d := dec{b: resp}
			if err := d.status(); err != nil {
				t.Fatal(err)
			}
			id, err := decIdentity(&d)
			if err != nil || id.Version != VersionService || id.Window != DefaultWindow {
				t.Fatalf("announcing v%d agreed %+v (%v), want v%d", v, id, err, VersionService)
			}
			if _, err := cliEnd.Write(tagged(7, raw{}.u8(uint8(OpVolList)))); err != nil {
				t.Fatal(err)
			}
			b, err := readFrame(cliEnd)
			if err != nil || len(b) < 9 || binary.LittleEndian.Uint64(b) != 7 || b[8] != StatusOK {
				t.Fatalf("tagged VolList after the handshake: % x, %v", b, err)
			}
		})
	}
}

// TestClientRefusesPreV4Server fakes a v3 server, which agrees v3 and
// advertises no window. The client refuses the connection instead of
// guessing its framing: Identify fails naming v4, every later call fails
// the same way, and no frame follows the handshake.
func TestClientRefusesPreV4Server(t *testing.T) {
	dev := newDevice(t)
	cliEnd, srvEnd := net.Pipe()
	after := make(chan error, 1)
	go func() {
		if _, err := readFrame(srvEnd); err != nil {
			after <- err
			return
		}
		e := &enc{}
		e.u8(StatusOK)
		e.u32(uint32(dev.PageSize()))
		e.u64(uint64(dev.LogicalPages()))
		e.u32(2)
		e.u32(1)
		e.time(dev.RetentionWindowStart())
		e.u32(3)
		if err := writeFrame(srvEnd, e.b); err != nil {
			after <- err
			return
		}
		body, err := readFrame(srvEnd)
		if err == nil {
			err = fmt.Errorf("client sent % x after a refused handshake", body)
		}
		after <- err
	}()
	c := NewClient(cliEnd)
	defer srvEnd.Close()

	_, err := c.Identify()
	if err == nil || !strings.Contains(err.Error(), "v4") {
		t.Fatalf("Identify against a v3 server: %v, want a refusal naming v4", err)
	}
	if _, werr := c.Write(0, page(c, 1, dev.PageSize()), vclock.Time(vclock.Second)); werr == nil || werr.Error() != err.Error() {
		t.Fatalf("Write after the refusal: %v, want %v", werr, err)
	}
	if _, lerr := c.VolList(); lerr == nil || lerr.Error() != err.Error() {
		t.Fatalf("VolList after the refusal: %v, want %v", lerr, err)
	}
	c.Close()
	within(t, "the fake server", func() {
		if err := <-after; !errors.Is(err, io.EOF) {
			t.Errorf("fake server after the client closed: %v, want EOF", err)
		}
	})
}
