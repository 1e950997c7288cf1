// Command imginspect examines a saved device image (almanacd -image)
// offline: it rebuilds the firmware state from the flash scan and reports
// geometry, occupancy, wear, retained history, and — optionally — the
// version history of one logical page. Nothing is modified.
//
//	imginspect device.img
//	imginspect -lpa 42 device.img
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

func main() {
	lpa := flag.Int64("lpa", -1, "also print the version history of this logical page")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: imginspect [-lpa N] <image-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	arr, err := flash.ReadImage(f)
	if err != nil {
		log.Fatal(err)
	}
	fc := arr.Config()
	fmt.Printf("geometry:   %d channels × %d chips × %d planes × %d blocks × %d pages × %d B = %d MiB raw\n",
		fc.Channels, fc.ChipsPerChannel, fc.PlanesPerChip, fc.BlocksPerPlane,
		fc.PagesPerBlock, fc.PageSize, fc.TotalBytes()>>20)
	st := arr.Stats()
	fmt.Printf("lifetime:   %d reads, %d programs, %d erases\n", st.Reads, st.Programs, st.Erases)
	min, max := arr.WearSpread()
	fmt.Printf("wear:       per-block erases %d..%d\n", min, max)

	dev, err := core.Rebuild(arr, core.DefaultConfig(ftl.WithFlash(fc)))
	if err != nil {
		log.Fatal(err)
	}
	mapped := 0
	for l := uint64(0); l < uint64(dev.LogicalPages()); l++ {
		if data, _, err := dev.Read(l, 0); err == nil {
			for _, b := range data {
				if b != 0 {
					mapped++
					break
				}
			}
		}
	}
	ts := dev.Counters()
	fmt.Printf("state:      %d logical pages (%d with content), %d free blocks\n",
		dev.LogicalPages(), mapped, dev.FreeBlocks())
	fmt.Printf("history:    %d retained invalidations re-registered by rebuild\n", ts.Invalidations)

	if *lpa >= 0 {
		vers, _, err := dev.Versions(uint64(*lpa), vclock.Time(1)<<40)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("versions of lpa %d: %d\n", *lpa, len(vers))
		for i, v := range vers {
			fmt.Printf("  #%d written %v live=%v (%d bytes", i, v.TS, v.Live, len(v.Data))
			n := 16
			if len(v.Data) < n {
				n = len(v.Data)
			}
			fmt.Printf(", head % x)\n", v.Data[:n])
		}
	}
}
