package kernels_test

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestBufferAccessorsInline pins the cost of a simulated global access: every
// plain BufferView accessor must inline into kernel bodies, where it is a
// counter increment on the workgroups that record nothing. One more call in
// an accessor would push it past the inliner's budget and turn every load and
// store of every kernel back into a real call, with no test failing. Like the
// Go compiler's own TestIntendedInlining, it reads the compiler's -m report.
func TestBufferAccessorsInline(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not found: %v", err)
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlined := map[string]bool{}
	for _, m := range regexp.MustCompile(`can inline BufferView\.(\w+)`).FindAllSubmatch(out, -1) {
		inlined[string(m[1])] = true
	}
	for _, name := range []string{"LoadF32", "StoreF32", "LoadI32", "StoreI32", "LoadU32", "StoreU32", "StoreU32Shared"} {
		if !inlined[name] {
			t.Errorf("BufferView.%s no longer inlines; see `go build -gcflags=-m=2 ./internal/kernels` for its cost", name)
		}
	}
}
