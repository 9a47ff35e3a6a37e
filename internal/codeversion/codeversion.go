// Package codeversion computes the code-version fingerprint the persistent
// snapshot store keys its entries by: a digest over every Go source file —
// baked into the binary with go:embed at build time — whose behaviour can
// change what a measurement cell executes or how its trace is recorded. The
// covered layers are the kernels and dispatch engine, the hw execution and
// recording seam (a run's Host, its trace and its timeline), the API front
// ends, the core runner/snapshot machinery, and every workload package
// (input generation included).
//
// Deliberately NOT covered: internal/platforms (DriverProfile knob values are
// timing-only — snapshot replay revalues them, and structural platform fields
// are already part of hw.Profile.ExecutionFingerprint, which the store key
// includes), internal/serve (an HTTP frontend over the replay seam: it can
// only select cells and override timing-only knobs, never change what a cell
// executes, so registering it would cold the store on every serving change),
// and the reporting/stats layers (both fresh runs and replays go through the
// current code, so a change there can never make a stored snapshot stale).
//
// The fingerprint is a pure function of the embedded sources, so two builds
// of identical code agree on it — which is what lets CI persist the store as
// a cache artifact keyed by this value.
package codeversion

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/cuda"
	"vcomputebench/internal/extensions/gemm"
	"vcomputebench/internal/extensions/reduction"
	"vcomputebench/internal/extensions/srad"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/rodinia"
	"vcomputebench/internal/rodinia/backprop"
	"vcomputebench/internal/rodinia/bfs"
	"vcomputebench/internal/rodinia/cfd"
	"vcomputebench/internal/rodinia/gaussian"
	"vcomputebench/internal/rodinia/hotspot"
	"vcomputebench/internal/rodinia/lud"
	"vcomputebench/internal/rodinia/nn"
	"vcomputebench/internal/rodinia/nw"
	"vcomputebench/internal/rodinia/pathfinder"
	"vcomputebench/internal/spirv"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

// sourceSet is one embedded package's sources, prefixed so identical file
// names in different packages cannot alias in the digest.
type sourceSet struct {
	prefix string
	fs     embed.FS
}

// sets lists every embedded source tree, in a fixed order (the digest also
// sorts, so the order here is documentation, not correctness).
var sets = []sourceSet{
	{"internal/bench", bench.Sources},
	{"internal/core", core.Sources},
	{"internal/cuda", cuda.Sources},
	{"internal/extensions/gemm", gemm.Sources},
	{"internal/extensions/reduction", reduction.Sources},
	{"internal/extensions/srad", srad.Sources},
	{"internal/glsl", glsl.Sources},
	{"internal/hw", hw.Sources},
	{"internal/kernels", kernels.Sources},
	{"internal/micro", micro.Sources},
	{"internal/opencl", opencl.Sources},
	{"internal/rodinia", rodinia.Sources},
	{"internal/rodinia/backprop", backprop.Sources},
	{"internal/rodinia/bfs", bfs.Sources},
	{"internal/rodinia/cfd", cfd.Sources},
	{"internal/rodinia/gaussian", gaussian.Sources},
	{"internal/rodinia/hotspot", hotspot.Sources},
	{"internal/rodinia/lud", lud.Sources},
	{"internal/rodinia/nn", nn.Sources},
	{"internal/rodinia/nw", nw.Sources},
	{"internal/rodinia/pathfinder", pathfinder.Sources},
	{"internal/spirv", spirv.Sources},
	{"internal/vulkan", vulkan.Sources},
	{"internal/vulkan/vkutil", vkutil.Sources},
}

var fingerprint = sync.OnceValue(compute)

// Fingerprint returns the code-version digest of this build: 64 lowercase hex
// characters, stable across processes built from identical sources.
func Fingerprint() string { return fingerprint() }

// compute hashes every embedded non-test Go file as "path\0len\0content" in
// sorted path order.
func compute() string {
	type file struct {
		path string
		data []byte
	}
	var files []file
	for _, s := range sets {
		err := fs.WalkDir(s.fs, ".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := fs.ReadFile(s.fs, path)
			if err != nil {
				return err
			}
			files = append(files, file{s.prefix + "/" + path, data})
			return nil
		})
		if err != nil {
			// Embedded filesystems cannot fail to read at runtime; a failure
			// here is a build-system bug, and a silently wrong fingerprint
			// would poison every store it touches.
			panic(fmt.Sprintf("codeversion: walking %s: %v", s.prefix, err))
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00", f.path, len(f.data))
		h.Write(f.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
