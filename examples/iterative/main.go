// Command iterative demonstrates the paper's key Vulkan-specific optimisation
// (§IV-C, §VI-B): for an iterative workload with data dependencies between
// iterations, recording every iteration into a single command buffer separated
// by memory barriers is compared against the naive approach of submitting one
// command buffer per iteration, and against the OpenCL multi-kernel method.
package main

import (
	"flag"
	"fmt"
	"log"

	vcb "vcomputebench"
)

func main() {
	platformID := flag.String("platform", "gtx1050ti", "platform id")
	flag.Parse()

	platform, err := vcb.PlatformByID(*platformID)
	if err != nil {
		log.Fatal(err)
	}
	// hotspot is the canonical iterative workload: one dependent dispatch per
	// simulated time step.
	bench, err := vcb.BenchmarkByName("hotspot")
	if err != nil {
		log.Fatal(err)
	}
	runner := vcb.NewRunner()

	fmt.Printf("hotspot on %s: Vulkan single-command-buffer recording vs the OpenCL multi-kernel method\n\n", platform.Profile.Name)
	fmt.Printf("%-10s %14s %14s %9s %11s\n", "workload", "OpenCL", "Vulkan", "speedup", "dispatches")
	for _, wl := range bench.Workloads(platform.Profile.Class) {
		cl, err := runner.Run(platform, bench, vcb.OpenCL, wl)
		if err != nil {
			log.Fatal(err)
		}
		vk, err := runner.Run(platform, bench, vcb.Vulkan, wl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14v %14v %8.2fx %11d\n",
			wl.Label, cl.KernelTime, vk.KernelTime,
			float64(cl.KernelTime)/float64(vk.KernelTime), vk.Dispatches)
	}

	fmt.Println("\nAblation (single command buffer vs one submit per iteration):")
	exp, err := vcb.ExperimentByID("ablation-cmdbuf")
	if err != nil {
		log.Fatal(err)
	}
	doc, err := exp.Run(vcb.ExperimentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(doc.Render())
}
