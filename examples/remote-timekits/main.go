// Remote TimeKits: the host-side view of the §4 implementation, where
// TimeKits talks to the device through (NVMe-wrapped) commands rather than
// function calls. This example starts an in-process almanacd server on a
// loopback socket, then performs the whole quickstart flow — write,
// time-travel, roll back — purely over the wire.
package main

import (
	"fmt"
	"log"
	"net"

	"almanac/internal/almaproto"
	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

func main() {
	// Device + server (in production this is the almanacd command): one
	// device is a 1-shard array under the volume service, the one way a
	// server is built.
	dev, err := core.New(core.DefaultConfig(ftl.WithFlash(flash.DefaultConfig())))
	if err != nil {
		log.Fatal(err)
	}
	arr, err := array.Assemble([]*core.TimeSSD{dev})
	if err != nil {
		log.Fatal(err)
	}
	defer arr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := almaproto.NewServiceServer(service.New(arr))
	go srv.Serve(ln)
	defer srv.Close()

	// Host side: pure protocol client.
	c, err := almaproto.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	id, err := c.Identify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected: %d logical pages × %d B, %d channels\n",
		id.LogicalPages, id.PageSize, id.Channels)

	page := func(s string) []byte {
		p := make([]byte, id.PageSize)
		copy(p, s)
		return p
	}
	const lpa = 7
	for i, s := range []string{"draft one", "draft two", "final copy"} {
		at := vclock.Time(i+1) * vclock.Time(vclock.Hour)
		if _, err := c.Write(lpa, page(s), at); err != nil {
			log.Fatal(err)
		}
	}
	now := vclock.Time(4 * vclock.Hour)

	vers, _, err := c.AddrQueryAll(lpa, 1, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("versions over the wire:")
	for _, v := range vers[0].Versions {
		fmt.Printf("  %v live=%-5v %q\n", v.TS, v.Live, string(v.Data[:10]))
	}

	if _, _, err := c.RollBack(lpa, 1, vclock.Time(90*vclock.Minute), now); err != nil {
		log.Fatal(err)
	}
	data, _, err := c.Read(lpa, now.Add(vclock.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after remote rollback: %q\n", string(data[:9]))

	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device stats: %d host writes, %d flash programs, %d deltas\n",
		st.HostPageWrites, st.FlashPrograms, st.DeltasCreated)
}
