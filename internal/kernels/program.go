package kernels

import (
	"fmt"
	"sort"
	"sync"
)

// Func is a kernel body. It is called once per executed workgroup; the body
// iterates its invocations with Workgroup.ForEach, separating barrier phases
// into successive ForEach passes.
type Func func(wg *Workgroup)

// Program describes a compute kernel: its entry point name, the local
// workgroup size baked into the SPIR-V module (OpExecutionMode LocalSize), the
// resources it binds, and the Go function implementing its body.
type Program struct {
	// Name is the entry point name, e.g. "bfs_kernel1". It is the key used by
	// SPIR-V modules and the driver compilers to locate the body.
	Name string
	// LocalSize is the workgroup (local) size declared by the kernel.
	LocalSize Dim3
	// Bindings is the number of storage-buffer bindings the kernel declares.
	Bindings int
	// ReadOnly declares the bindings the kernel never stores to: bit i for
	// binding i, as the GLSL source's readonly qualifier does. A dispatch may
	// bind them to words other buffers and the host share.
	ReadOnly uint64
	// PushConstantWords is the number of 32-bit push-constant words the kernel
	// consumes (0 if none).
	PushConstantWords int
	// SharedWordsPerGroup is the shared (workgroup-local) memory footprint in
	// 32-bit words, used by the occupancy and local-traffic model.
	SharedWordsPerGroup int
	// ALUPerInvocation is a static estimate of arithmetic operations per
	// invocation added on top of explicit Invocation.ALU calls. Most kernels
	// rely on explicit accounting and leave this zero.
	ALUPerInvocation int
	// LocalMemCandidate marks kernels whose generated ISA a mature driver
	// compiler optimises to stage repeated global loads in workgroup-local
	// memory (the paper's CodeXL finding for bfs). Drivers with the
	// LocalMemoryAutoOpt attribute reduce the global traffic of such kernels.
	LocalMemCandidate bool
	// Exact forces functional execution of every workgroup even on very large
	// dispatches (disables sampling); required for kernels whose later control
	// flow depends on every output element (e.g. frontier propagation in bfs).
	Exact bool
	// Fn is the kernel body.
	Fn Func
}

// Validate checks the program for structural problems.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("kernels: nil program")
	}
	if p.Name == "" {
		return fmt.Errorf("kernels: program has empty name")
	}
	if !p.LocalSize.Valid() {
		return fmt.Errorf("kernels: program %q has invalid local size %v", p.Name, p.LocalSize)
	}
	if p.Bindings < 0 {
		return fmt.Errorf("kernels: program %q has negative binding count", p.Name)
	}
	if p.Bindings < MaxBindings && p.ReadOnly>>p.Bindings != 0 {
		return fmt.Errorf("kernels: program %q declares read-only bindings %#x beyond its %d", p.Name, p.ReadOnly, p.Bindings)
	}
	if p.Fn == nil {
		return fmt.Errorf("kernels: program %q has no body", p.Name)
	}
	return nil
}

// Registry is a thread-safe collection of programs keyed by entry point name.
type Registry struct {
	mu       sync.RWMutex
	programs map[string]*Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{programs: make(map[string]*Program)}
}

// Register adds a program, failing if the name is already taken or the
// program is invalid.
func (r *Registry) Register(p *Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.programs[p.Name]; ok {
		return fmt.Errorf("kernels: program %q already registered", p.Name)
	}
	r.programs[p.Name] = p
	return nil
}

// MustRegister registers a program and panics on error. It is intended for
// package init-time registration of the benchmark kernels.
func (r *Registry) MustRegister(p *Program) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the program with the given entry point name.
func (r *Registry) Lookup(name string) (*Program, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.programs[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown program %q", name)
	}
	return p, nil
}

// Names returns the sorted names of all registered programs.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.programs))
	for name := range r.programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of registered programs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.programs)
}

// Default is the process-wide registry that benchmark packages register their
// kernels into at init time.
var Default = NewRegistry()

// Register adds a program to the default registry.
func Register(p *Program) error { return Default.Register(p) }

// MustRegister adds a program to the default registry and panics on error.
func MustRegister(p *Program) { Default.MustRegister(p) }

// Lookup finds a program in the default registry.
func Lookup(name string) (*Program, error) { return Default.Lookup(name) }
