package experiments

import (
	"fmt"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// runAblationCmdBuf quantifies §VI-B recommendation 1: recording an iterative
// workload into one command buffer with memory barriers versus naively
// submitting one command buffer per iteration. Its cells are ordinary runner
// cells: under -keep-going a row whose cell failed is left out, and the
// document lists the cell.
func runAblationCmdBuf(opts Options) (*report.Document, error) {
	opts = opts.defaults()
	t := &report.Table{
		Title:   "Single command buffer + barriers vs per-iteration submissions (Vulkan)",
		Columns: []string{"Platform", "Iterations", "Single cmdbuf", "Per-iteration submits", "Benefit"},
	}
	doc := &report.Document{ID: "ablation-cmdbuf", Title: t.Title, Tables: []*report.Table{t}}
	b := micro.IterativeAdd
	runner := opts.Runner()
	for _, p := range []*platforms.Platform{platforms.GTX1050Ti(), platforms.Adreno506()} {
		suiteRes, err := runner.RunSuite(p, []core.Benchmark{b}, []hw.API{hw.APIVulkan})
		if err != nil {
			return nil, err
		}
		for _, iters := range []string{"16", "64", "256"} {
			single, okSingle := suiteRes.Lookup(b.Name(), iters+"-single", hw.APIVulkan)
			multi, okMulti := suiteRes.Lookup(b.Name(), iters+"-separate", hw.APIVulkan)
			if !okSingle || !okMulti {
				continue // only a failed cell leaves no result; addFailures lists it
			}
			t.AddRow(p.Profile.Name, iters, single.KernelTime.String(), multi.KernelTime.String(),
				fmt.Sprintf("%.2fx", float64(multi.KernelTime)/float64(single.KernelTime)))
		}
		addFailures(doc, suiteRes, p.ID)
	}
	return doc, nil
}

// runAblationPush quantifies the Snapdragon push-constant quirk of §V-B1 by
// running the bandwidth microbenchmark on the stock Adreno 506 profile and on
// a hypothetical fixed driver that honours push constants.
func runAblationPush(opts Options) (*report.Document, error) {
	opts = opts.defaults()
	b, err := core.Get("membandwidth")
	if err != nil {
		return nil, err
	}
	stock := platforms.Adreno506()
	fixed := platforms.Adreno506()
	fixed.ID = "adreno506-fixed-push"
	drv := fixed.Profile.Drivers[hw.APIVulkan]
	drv.PushConstantsAsBuffers = false
	fixed.Profile.Drivers[hw.APIVulkan] = drv

	runner := opts.Runner()
	t := &report.Table{
		Title:   "Push constants demoted to buffer binds (Adreno 506, Vulkan strided bandwidth)",
		Columns: []string{"Stride", "Stock driver GB/s", "Push constants honoured GB/s"},
	}
	for _, w := range b.Workloads(hw.ClassMobile) {
		r1, err := runner.Run(stock, b, hw.APIVulkan, w)
		if err != nil {
			return nil, err
		}
		r2, err := runner.Run(fixed, b, hw.APIVulkan, w)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Label,
			fmt.Sprintf("%.3f", r1.ExtraValue(micro.ExtraBandwidthGBps)),
			fmt.Sprintf("%.3f", r2.ExtraValue(micro.ExtraBandwidthGBps)))
	}
	doc := &report.Document{ID: "ablation-push", Title: t.Title, Tables: []*report.Table{t}}
	doc.Notes = append(doc.Notes, "the gap is largest at small strides, where kernels are short and the per-iteration descriptor bind is not amortised (§V-B1)")
	return doc, nil
}
