// Command bandwidth sweeps the strided-memory-access microbenchmark across
// every supported API on one platform, reproducing a Figure 1 / Figure 3 style
// bandwidth-vs-stride series from the public API.
package main

import (
	"flag"
	"fmt"
	"log"

	vcb "vcomputebench"
)

func main() {
	platformID := flag.String("platform", "gtx1050ti", "platform id (gtx1050ti, rx560, adreno506, powervr-g6430)")
	flag.Parse()

	platform, err := vcb.PlatformByID(*platformID)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := vcb.BenchmarkByName("membandwidth")
	if err != nil {
		log.Fatal(err)
	}
	runner := &vcb.Runner{Seed: 42}

	fmt.Printf("strided bandwidth on %s (peak %.1f GB/s)\n\n",
		platform.Profile.Name, platform.Profile.PeakBandwidthGBps)
	fmt.Printf("%-8s", "stride")
	apis := platform.Profile.SupportedAPIs()
	for _, api := range apis {
		fmt.Printf("%12s", api.String())
	}
	fmt.Println()

	for _, wl := range bench.Workloads(platform.Profile.Class) {
		fmt.Printf("%-8s", wl.Label)
		for _, api := range apis {
			res, err := runner.Run(platform, bench, api, wl)
			if err != nil {
				fmt.Printf("%12s", "n/a")
				continue
			}
			fmt.Printf("%10.2f  ", res.ExtraValue("bandwidth_gbps"))
		}
		fmt.Println()
	}
}
