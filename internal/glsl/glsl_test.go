package glsl_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vcomputebench/internal/glsl"
	"vcomputebench/internal/kernels"
	_ "vcomputebench/internal/rodinia/suite"
)

// TestCompileChecksReadOnly: Compile rejects a source whose readonly buffer
// bindings differ from the program's ReadOnly declaration, either way.
func TestCompileChecksReadOnly(t *testing.T) {
	reg := kernels.NewRegistry()
	reg.MustRegister(&kernels.Program{
		Name:      "readonly_test",
		LocalSize: kernels.D1(64),
		Bindings:  3,
		ReadOnly:  1<<0 | 1<<2,
		Fn:        func(*kernels.Workgroup) {},
	})
	source := func(qualifiers ...string) string {
		src := "#version 450\nlayout(local_size_x = 64) in;\n"
		for b, q := range qualifiers {
			src += fmt.Sprintf("layout(std430, set = 0, binding = %d) %sbuffer B%d { float d[]; };\n", b, q, b)
		}
		return src + "void main() {}\n"
	}
	for _, tc := range []struct {
		name       string
		qualifiers []string
		ok         bool
	}{
		{"as declared", []string{"readonly ", "", "restrict readonly "}, true},
		{"one missing", []string{"readonly ", "", ""}, false},
		{"one extra", []string{"readonly ", "readonly ", "readonly "}, false},
		{"none", []string{"", "", ""}, false},
	} {
		_, err := glsl.Compile(glsl.KernelSource{EntryPoint: "readonly_test", Source: source(tc.qualifiers...)}, reg)
		var ce *glsl.CompileError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && (!errors.As(err, &ce) || !strings.Contains(ce.Reason, "readonly")):
			t.Errorf("%s: error %v, want a readonly mismatch", tc.name, err)
		}
	}
	p, err := reg.Lookup("readonly_test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := glsl.Compile(glsl.KernelSource{EntryPoint: p.Name, Source: glsl.GenerateSource(p)}, reg); err != nil {
		t.Errorf("generated source: %v", err)
	}
}

// TestRegisteredSourcesCompile: every registered program's GLSL source
// compiles, so it says readonly on exactly the bindings the program declares
// read-only.
func TestRegisteredSourcesCompile(t *testing.T) {
	names := kernels.Default.Names()
	if len(names) == 0 {
		t.Fatal("no registered programs")
	}
	for _, name := range names {
		p, err := kernels.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := glsl.CompileProgram(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
