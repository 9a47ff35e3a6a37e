// Package glsl models the kernel-authoring side of the paper's tool chain:
// every VComputeBench kernel has a GLSL compute-shader source, and an
// offline compiler ("glslangValidator" in the paper, Compile here) turns that
// source plus its interface description into a SPIR-V binary consumed by the
// Vulkan layer.
//
// The compiler performs light syntactic checks on the GLSL text (version
// pragma, local_size declaration, main function) and cross-checks the declared
// local size, bindings and readonly bindings against the registered kernel
// program, then emits a SPIR-V module via internal/spirv.
package glsl

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vcomputebench/internal/kernels"
	"vcomputebench/internal/spirv"
)

// KernelSource is the GLSL source of one compute kernel.
type KernelSource struct {
	// EntryPoint is the kernel name; it must match a registered
	// kernels.Program.
	EntryPoint string
	// Source is the GLSL text.
	Source string
}

var (
	sourcesMu sync.RWMutex
	sources   = map[string]string{}
)

// RegisterSource associates GLSL text with a kernel entry point. Benchmark
// packages call this from init alongside kernels.MustRegister.
func RegisterSource(entryPoint, source string) {
	sourcesMu.Lock()
	defer sourcesMu.Unlock()
	sources[entryPoint] = source
}

// Source returns the registered GLSL text for the entry point, or a generated
// skeleton if none was registered.
func Source(entryPoint string) string {
	sourcesMu.RLock()
	src, ok := sources[entryPoint]
	sourcesMu.RUnlock()
	if ok {
		return src
	}
	if p, err := kernels.Lookup(entryPoint); err == nil {
		return GenerateSource(p)
	}
	return ""
}

// SourceEntryPoints lists the entry points with registered GLSL text.
func SourceEntryPoints() []string {
	sourcesMu.RLock()
	defer sourcesMu.RUnlock()
	out := make([]string, 0, len(sources))
	for k := range sources {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GenerateSource produces a skeleton GLSL compute shader matching the
// program's interface. It is used for kernels whose hand-written source has
// not been registered and in documentation.
func GenerateSource(p *kernels.Program) string {
	src := "#version 450\n"
	src += fmt.Sprintf("layout(local_size_x = %d, local_size_y = %d, local_size_z = %d) in;\n",
		p.LocalSize.X, p.LocalSize.Y, p.LocalSize.Z)
	for b := 0; b < p.Bindings; b++ {
		qualifier := ""
		if p.ReadOnly>>b&1 != 0 {
			qualifier = "readonly "
		}
		src += fmt.Sprintf("layout(std430, set = 0, binding = %d) %sbuffer Buf%d { float data%d[]; };\n", b, qualifier, b, b)
	}
	if p.PushConstantWords > 0 {
		src += "layout(push_constant) uniform Params {\n"
		for w := 0; w < p.PushConstantWords; w++ {
			src += fmt.Sprintf("    uint p%d;\n", w)
		}
		src += "} params;\n"
	}
	src += fmt.Sprintf("void main() {\n    // %s body executes in the simulator (see internal/kernels)\n}\n", p.Name)
	return src
}

var (
	versionRe   = regexp.MustCompile(`(?m)^\s*#version\s+(\d+)`)
	localSizeRe = regexp.MustCompile(`local_size_x\s*=\s*(\d+)(?:\s*,\s*local_size_y\s*=\s*(\d+))?(?:\s*,\s*local_size_z\s*=\s*(\d+))?`)
	mainRe      = regexp.MustCompile(`void\s+main\s*\(`)
	bindingRe   = regexp.MustCompile(`binding\s*=\s*(\d+)`)
	// bufferRe matches a buffer block declaration: its layout arguments and
	// the qualifiers before the buffer keyword.
	bufferRe = regexp.MustCompile(`layout\s*\(([^)]*)\)\s*((?:\w+\s+)*)buffer\s`)
)

// CompileError is returned when a GLSL source fails the front-end checks.
type CompileError struct {
	EntryPoint string
	Reason     string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("glsl: %s: %s", e.EntryPoint, e.Reason)
}

// Compile checks src against its registered kernel program and produces a
// SPIR-V binary, mirroring `glslangValidator -V`.
func Compile(src KernelSource, reg *kernels.Registry) ([]uint32, error) {
	if reg == nil {
		reg = kernels.Default
	}
	p, err := reg.Lookup(src.EntryPoint)
	if err != nil {
		return nil, &CompileError{EntryPoint: src.EntryPoint, Reason: err.Error()}
	}
	text := src.Source
	if text == "" {
		text = Source(src.EntryPoint)
	}
	if m := versionRe.FindStringSubmatch(text); m == nil {
		return nil, &CompileError{EntryPoint: src.EntryPoint, Reason: "missing #version pragma"}
	} else if v, _ := strconv.Atoi(m[1]); v < 430 {
		return nil, &CompileError{EntryPoint: src.EntryPoint,
			Reason: fmt.Sprintf("compute shaders require #version >= 430, got %d", v)}
	}
	if !mainRe.MatchString(text) {
		return nil, &CompileError{EntryPoint: src.EntryPoint, Reason: "missing void main()"}
	}
	m := localSizeRe.FindStringSubmatch(text)
	if m == nil {
		return nil, &CompileError{EntryPoint: src.EntryPoint, Reason: "missing local_size layout qualifier"}
	}
	lx, _ := strconv.Atoi(m[1])
	ly, lz := 1, 1
	if m[2] != "" {
		ly, _ = strconv.Atoi(m[2])
	}
	if m[3] != "" {
		lz, _ = strconv.Atoi(m[3])
	}
	if lx != p.LocalSize.X || ly != p.LocalSize.Y || lz != p.LocalSize.Z {
		return nil, &CompileError{EntryPoint: src.EntryPoint,
			Reason: fmt.Sprintf("GLSL local size (%d,%d,%d) does not match registered kernel %v",
				lx, ly, lz, p.LocalSize)}
	}

	seen := map[int]bool{}
	for _, bm := range bindingRe.FindAllStringSubmatch(text, -1) {
		n, _ := strconv.Atoi(bm[1])
		seen[n] = true
	}
	if len(seen) < p.Bindings {
		return nil, &CompileError{EntryPoint: src.EntryPoint,
			Reason: fmt.Sprintf("GLSL declares %d bindings, kernel requires %d", len(seen), p.Bindings)}
	}
	if ro := readOnlyBindings(text); ro != p.ReadOnly {
		return nil, &CompileError{EntryPoint: src.EntryPoint,
			Reason: fmt.Sprintf("GLSL declares readonly bindings %#b, kernel declares %#b", ro, p.ReadOnly)}
	}

	mod := &spirv.Module{
		EntryPoint:        p.Name,
		LocalSizeX:        p.LocalSize.X,
		LocalSizeY:        p.LocalSize.Y,
		LocalSizeZ:        p.LocalSize.Z,
		PushConstantWords: p.PushConstantWords,
	}
	for b := 0; b < p.Bindings; b++ {
		mod.Bindings = append(mod.Bindings, spirv.Binding{Set: 0, Binding: b})
	}
	return mod.Encode()
}

// readOnlyBindings returns the bindings whose buffer blocks the GLSL text
// declares readonly: bit i for binding i.
func readOnlyBindings(text string) uint64 {
	var ro uint64
	for _, m := range bufferRe.FindAllStringSubmatch(text, -1) {
		b := bindingRe.FindStringSubmatch(m[1])
		if b == nil || !slices.Contains(strings.Fields(m[2]), "readonly") {
			continue
		}
		if n, _ := strconv.Atoi(b[1]); n < kernels.MaxBindings {
			ro |= 1 << n
		}
	}
	return ro
}

// CompileProgram compiles the registered (or generated) source of a program.
func CompileProgram(p *kernels.Program) ([]uint32, error) {
	return Compile(KernelSource{EntryPoint: p.Name, Source: Source(p.Name)}, nil)
}

// MustCompileProgram compiles the program's source and panics on error. It is
// used by the benchmarks, whose sources are registered at init time and whose
// compilation cannot fail in a correctly built binary.
func MustCompileProgram(p *kernels.Program) []uint32 {
	code, err := CompileProgram(p)
	if err != nil {
		panic(err)
	}
	return code
}
