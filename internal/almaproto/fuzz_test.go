package almaproto

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"almanac/internal/service"
	"almanac/internal/vclock"
)

// tagged frames a v4 request: length prefix, request ID, then the body.
func tagged(reqID uint64, req raw) []byte {
	return append(raw{}.u32(uint32(8+len(req))).u64(reqID), req...)
}

// batchReq is an OpBatch against volume id: n ops cycling write, read
// and trim over the first few volume pages.
func batchReq(id uint32, n, pageSize int) raw {
	req := raw{}.u8(uint8(OpBatch)).u32(id).u32(uint32(n))
	for i := 0; i < n; i++ {
		kind := []service.OpKind{service.KindWrite, service.KindRead, service.KindTrim}[i%3]
		req = req.u8(uint8(kind)).u64(uint64(i % 4)).t(vclock.Time(vclock.Hour).Add(vclock.Duration(i) * vclock.Second))
		if kind == service.KindWrite {
			req = req.blob(page(nil, byte(i), pageSize))
		}
	}
	return req
}

// FuzzTaggedFrame fuzzes a connection from its first byte: hs is the body
// of the handshake frame, and in the bytes written after it, which reach
// the tagged serve loop, execute, serveBatch and the batch decoder.
// The server must not panic and must answer the handshake with one
// well-formed untagged frame: the identity if hs is an Identify announcing
// v4 or later, and otherwise an error naming v4, after which it closes.
// Past an accepted handshake it must answer every frame it can read, and
// ServeOne must return once the client hangs up. Every frame the server
// writes there must be a well-formed tagged completion: a length prefix, a
// request ID the input carried (no more often than it carried it), and a
// status byte.
func FuzzTaggedFrame(f *testing.F) {
	const ps = 512 // newServiceArray's page size
	at := vclock.Time(vclock.Hour)
	create := tagged(1, raw{}.u8(uint8(OpVolCreate)).blob([]byte("v")).blob([]byte("k")).u64(16).i64(0).t(at))
	attach := tagged(2, raw{}.u8(uint8(OpVolAttach)).blob([]byte("v")).blob([]byte("k")).t(at))
	hello := []byte(raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion))
	requests := []raw{
		raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion),
		raw{}.u8(uint8(OpWrite)).u64(5).t(at).blob(page(nil, 0xa1, ps)),
		raw{}.u8(uint8(OpRead)).u64(5).t(at),
		raw{}.u8(uint8(OpTrim)).u64(6).t(at),
		raw{}.u8(uint8(OpAddrQuery)).u64(5).u32(1).t(at).t(at),
		raw{}.u8(uint8(OpAddrQueryRange)).u64(5).u32(1).t(0).t(at).t(at),
		raw{}.u8(uint8(OpAddrQueryAll)).u64(5).u32(1).t(at),
		raw{}.u8(uint8(OpTimeQuery)).t(at - 1).t(at),
		raw{}.u8(uint8(OpTimeQueryRange)).t(0).t(at).t(at),
		raw{}.u8(uint8(OpTimeQueryAll)).t(at),
		raw{}.u8(uint8(OpRollBack)).u64(5).u32(1).t(0).t(at),
		raw{}.u8(uint8(OpRollBackParallel)).u32(1).u64(5).u32(2).t(0).t(at),
		raw{}.u8(uint8(OpRollBackAll)).t(0).t(at),
		raw{}.u8(uint8(OpStats)),
		raw{}.u8(uint8(OpMetrics)),
		raw{}.u8(uint8(OpTrace)).u32(16),
		raw{}.u8(uint8(OpVolList)),
		raw{}.u8(uint8(OpVolStats)).u32(1),
		raw{}.u8(uint8(OpVolRollBack)).u32(1).t(0).t(at),
		raw{}.u8(uint8(OpVolDelete)).blob([]byte("v")).blob([]byte("k")).t(at),
	}
	for i, req := range requests {
		f.Add(hello, append(append([]byte(nil), create...), tagged(uint64(0x100+i), req)...))
	}
	for _, n := range []int{1, 16} {
		b := append(append([]byte(nil), create...), attach...)
		f.Add(hello, append(b, tagged(0x200, batchReq(1, n, ps))...))
	}
	f.Add(hello, tagged(0x300, batchReq(1, 1, ps))) // not attached: refused before it runs
	// Every request again, with one trailing byte: refused before it runs.
	setup := append(append([]byte(nil), create...), attach...)
	for i, req := range append(requests, batchReq(1, 1, ps)) {
		f.Add(hello, append(append([]byte(nil), setup...), tagged(uint64(0x500+i), append(req, 0))...))
	}
	whole := tagged(0x400, requests[1])
	f.Add(hello, whole[:len(whole)/2])                                       // cut mid-body
	f.Add(hello, whole[:6])                                                  // cut mid-ID
	f.Add(hello, []byte(raw{}.u32(4).u32(0)))                                // too short for an ID
	f.Add(hello, []byte(append(raw{}.u32(maxFrame+1), make([]byte, 16)...))) // past maxFrame
	// Handshakes: refused ones, then ones past v4 that agree v4.
	for _, hs := range []raw{
		raw{}.u8(uint8(OpIdentify)),
		raw{}.u8(uint8(OpIdentify)).u32(1),
		raw{}.u8(uint8(OpIdentify)).u32(2),
		raw{}.u8(uint8(OpIdentify)).u32(3),
		raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion).u8(0), // trailing byte
		raw{}.u8(uint8(OpRead)).u64(5).t(at),
		{},
		raw{}.u8(uint8(OpIdentify)).u32(5),
		raw{}.u8(uint8(OpIdentify)).u32(1 << 31),
	} {
		f.Add([]byte(hs), whole)
	}

	f.Fuzz(func(t *testing.T, hs, in []byte) {
		srv := NewServiceServer(newServiceArray(t))
		cliEnd, srvEnd := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.ServeOne(srvEnd)
			close(served)
		}()
		defer func() {
			srvEnd.Close()
			cliEnd.Close()
		}()

		if len(hs) > maxFrame {
			t.Skip("handshake body past maxFrame")
		}
		if _, err := cliEnd.Write(framed(hs)); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(cliEnd)
		if err != nil || len(resp) == 0 {
			t.Fatalf("handshake % x: answer % x, %v", hs, resp, err)
		}
		d := dec{b: resp}
		herr := d.status()
		if len(hs) == 5 && Op(hs[0]) == OpIdentify && binary.LittleEndian.Uint32(hs[1:]) >= CurrentVersion {
			if id, err := decIdentity(&d); herr != nil || err != nil || id.Version != CurrentVersion || d.pos != len(resp) {
				t.Fatalf("handshake % x: answer % x (%v, %v), want the v4 identity", hs, resp, herr, err)
			}
		} else {
			if herr == nil || !strings.Contains(herr.Error(), "v4") || d.pos != len(resp) {
				t.Fatalf("handshake % x: answer % x (%v), want one error naming v4", hs, resp, herr)
			}
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Fatal("ServeOne did not return after refusing the handshake")
			}
			return
		}

		// The server answers every frame it reads, even after it stops
		// reading at a malformed one, so the client hangs up only once
		// every readable request has its completion.
		ids := requestIDs(in)
		want := 0
		for _, n := range ids {
			want += n
		}
		var frames [][]byte
		answered := make(chan struct{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if len(frames) == want {
					close(answered)
				}
				b, err := readFrame(cliEnd)
				if err != nil {
					return
				}
				frames = append(frames, b)
			}
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = cliEnd.Write(in)
		}()
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			cliEnd.Close()
			<-drained
			t.Fatalf("server answered %d of %d requests", len(frames), want)
		}
		cliEnd.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeOne did not return after the client hung up")
		}
		srvEnd.Close() // unblocks a write the server stopped reading
		<-wrote
		<-drained

		for i, b := range frames {
			if len(b) < 9 {
				t.Fatalf("completion %d: %d bytes, want a request ID and a status", i, len(b))
			}
			id := binary.LittleEndian.Uint64(b)
			if ids[id] == 0 {
				t.Fatalf("completion %d: request ID %#x was not submitted (or completed twice)", i, id)
			}
			ids[id]--
			if b[8] > StatusBeforeWindow {
				t.Fatalf("completion %d: status %d is no status code", i, b[8])
			}
		}
	})
}

// requestIDs counts the request IDs of the tagged frames the server can
// read from in: it reads frames in order and stops at the first that is
// truncated, past maxFrame, or too short to carry an ID.
func requestIDs(in []byte) map[uint64]int {
	ids := map[uint64]int{}
	for len(in) >= 4 {
		n := binary.LittleEndian.Uint32(in)
		if n > maxFrame || n < 8 || uint64(len(in)-4) < uint64(n) {
			break
		}
		ids[binary.LittleEndian.Uint64(in[4:])]++
		in = in[4+n:]
	}
	return ids
}
