package core

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd pins the package's float results across machines.
// On arm64 (and ppc64le, riscv64, loong64) the Go compiler may fuse x*y + z
// into one instruction that rounds once, so the input draws and the checksums
// would differ from amd64's in their last bits. An explicit float64(…) or
// float32(…) around the product prevents it. The test cross-compiles the
// package for arm64 and reads the compiler's -S listing for any fused
// multiply-add in the package's own functions.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not found: %v", err)
	}
	cmd := exec.Command(goTool, "build", "-o", os.DevNull, "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	fn := regexp.MustCompile(`^(\S+) STEXT`)
	fused := regexp.MustCompile(`\((\S+\.go:\d+)\)\s+FN?M(ADD|SUB)[SD]\b`)
	funcs, current := 0, ""
	for _, line := range strings.Split(string(out), "\n") {
		if m := fn.FindStringSubmatch(line); m != nil {
			current = m[1]
			funcs++
		} else if m := fused.FindStringSubmatch(line); m != nil && strings.HasPrefix(current, "vcomputebench/internal/core.") {
			t.Errorf("%s: fused multiply-add at %s; wrap the product in float64(…) or float32(…)", current, m[1])
		}
	}
	if funcs == 0 {
		t.Fatalf("no function in the -S listing:\n%.2000s", out)
	}
}
