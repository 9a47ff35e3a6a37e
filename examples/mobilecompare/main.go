// Command mobilecompare runs the Rodinia suite on the two mobile platforms and
// prints Vulkan speedups over OpenCL per benchmark and workload (a Figure 4
// style comparison), including the exclusions the paper reports (cfd does not
// fit, backprop fails on the Nexus, lud/OpenCL fails on the Snapdragon).
package main

import (
	"fmt"
	"log"

	vcb "vcomputebench"
)

func main() {
	runner := &vcb.Runner{Seed: 42}
	for _, id := range []string{"powervr-g6430", "adreno506"} {
		platform, err := vcb.PlatformByID(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", platform.Profile.Name)
		fmt.Printf("%-12s %-8s %14s %14s %9s\n", "benchmark", "input", "OpenCL", "Vulkan", "speedup")
		for _, b := range vcb.Benchmarks() {
			if b.Name() == "vectoradd" || b.Name() == "membandwidth" {
				continue
			}
			for _, wl := range b.Workloads(platform.Profile.Class) {
				cl, errCL := runner.Run(platform, b, vcb.OpenCL, wl)
				vk, errVK := runner.Run(platform, b, vcb.Vulkan, wl)
				switch {
				case errCL != nil:
					fmt.Printf("%-12s %-8s excluded: %v\n", b.Name(), wl.Label, errCL)
				case errVK != nil:
					fmt.Printf("%-12s %-8s excluded: %v\n", b.Name(), wl.Label, errVK)
				default:
					fmt.Printf("%-12s %-8s %14v %14v %8.2fx\n",
						b.Name(), wl.Label, cl.KernelTime, vk.KernelTime,
						float64(cl.KernelTime)/float64(vk.KernelTime))
				}
			}
		}
		fmt.Println()
	}
}
