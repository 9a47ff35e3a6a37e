package hw_test

import (
	"testing"

	"vcomputebench/internal/platforms"
)

// TestExecutionFingerprintPinned pins the execution fingerprint of the four
// platforms byte for byte. Store keys and disk entry names hold these
// strings, so a builder that drifts by one byte would cold every store. The
// three non-NVIDIA parts cover an API without a driver (CUDA=off), and the
// Adreno's Vulkan driver demotes push constants to buffers (pcb=true).
func TestExecutionFingerprintPinned(t *testing.T) {
	want := map[string]string{
		platforms.IDGTX1050Ti: "class=desktop;warp=32;line=128;devmem=4294967296;hostmem=17179869184;unified=false;maxwg=1024;" +
			"OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=256;CUDA=on,pcb=false,maxpush=4096",
		platforms.IDRX560: "class=desktop;warp=64;line=128;devmem=4294967296;hostmem=17179869184;unified=false;maxwg=1024;" +
			"OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=128;CUDA=off",
		platforms.IDPowerVR: "class=mobile;warp=32;line=64;devmem=536870912;hostmem=1073741824;unified=true;maxwg=512;" +
			"OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=128;CUDA=off",
		platforms.IDAdreno506: "class=mobile;warp=64;line=64;devmem=805306368;hostmem=2147483648;unified=true;maxwg=512;" +
			"OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=true,maxpush=128;CUDA=off",
	}
	all := platforms.All()
	if len(all) != len(want) {
		t.Fatalf("%d platforms, the pins cover %d", len(all), len(want))
	}
	for _, p := range all {
		if got := p.Profile.ExecutionFingerprint(); got != want[p.ID] {
			t.Errorf("%s: fingerprint\n  got  %q\n  want %q", p.ID, got, want[p.ID])
		}
	}
}
