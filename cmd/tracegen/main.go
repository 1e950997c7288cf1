// Command tracegen generates and inspects the synthetic block traces used
// by the evaluation (the MSR- and FIU-class workloads of Table 2).
//
// Usage:
//
//	tracegen -list
//	tracegen -name src -days 7 -footprint 10000 -reqperday 2000 [-csv]
//
// Without -csv it prints a summary (request counts, write ratio, span,
// footprint coverage); with -csv it streams the trace as
// "at_ns,op,lpa,pages" rows, suitable for external analysis.
package main

import (
	"flag"
	"fmt"
	"os"

	"almanac/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list workload names and exit")
	name := flag.String("name", "src", "workload name")
	days := flag.Int("days", 7, "trace length in virtual days")
	footprint := flag.Uint64("footprint", 16384, "footprint in pages")
	reqPerDay := flag.Int("reqperday", 2000, "reference requests per day")
	seed := flag.Int64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "dump the trace as CSV instead of a summary")
	flag.Parse()

	if *list {
		for _, n := range trace.AllNames() {
			class, _ := trace.ClassOf(n)
			kind := "MSR"
			if class == trace.ClassFIU {
				kind = "FIU"
			}
			fmt.Printf("%-12s %s\n", n, kind)
		}
		return
	}

	spec, err := trace.NamedSpec(*name, *footprint, *days, *reqPerDay, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	reqs, err := trace.Generate(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}

	if *csv {
		if err := trace.WriteCSV(os.Stdout, reqs); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var writes, trims, pages int
	touched := map[uint64]bool{}
	for _, r := range reqs {
		switch r.Op {
		case trace.OpWrite:
			writes++
		case trace.OpTrim:
			trims++
		}
		pages += r.Pages
		for p := 0; p < r.Pages; p++ {
			touched[r.LPA+uint64(p)] = true
		}
	}
	span := reqs[len(reqs)-1].At.Sub(reqs[0].At)
	fmt.Printf("workload:     %s\n", *name)
	fmt.Printf("requests:     %d (%d writes, %d trims, %d reads)\n",
		len(reqs), writes, trims, len(reqs)-writes-trims)
	fmt.Printf("write ratio:  %.2f\n", float64(writes+trims)/float64(len(reqs)))
	fmt.Printf("total pages:  %d (avg %.1f per request)\n", pages, float64(pages)/float64(len(reqs)))
	fmt.Printf("span:         %.1f days\n", span.Hours()/24)
	fmt.Printf("footprint:    %d of %d pages touched (%.0f%%)\n",
		len(touched), *footprint, 100*float64(len(touched))/float64(*footprint))
}
