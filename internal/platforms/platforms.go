// Package platforms defines the four experimental platforms used in the paper
// (Tables II and III): two desktop GPUs (NVIDIA GTX 1050 Ti, AMD RX 560) and
// two mobile GPUs (Qualcomm Adreno 506 in the Snapdragon 625, Imagination
// PowerVR G6430 in the Google Nexus Player).
//
// The hardware numbers (compute units, clocks, memory configuration, peak
// bandwidth) come from the public specifications the paper quotes; the driver
// overhead and efficiency numbers are calibrated per benchmark so the
// simulator reproduces the published Fig. 1/3 achieved bandwidths, the
// per-benchmark Fig. 2 speedup bars pinned in internal/expected, and the
// headline geomeans within the tolerances TestPaperFidelity enforces (10% on
// the desktop geomeans). Every calibrated value is a field on hw.Profile /
// hw.DriverProfile so it can be inspected, swept and unit-tested;
// `vcbench -calibrate <platform>` reports each target's current error and
// `-sweep` proposes recalibrated values after timing-model changes
// (internal/calibrate).
package platforms

import (
	"fmt"
	"sort"
	"time"

	"vcomputebench/internal/hw"
)

// Canonical platform identifiers used by the CLI and the experiments package.
const (
	IDGTX1050Ti  = "gtx1050ti"
	IDRX560      = "rx560"
	IDAdreno506  = "adreno506"
	IDPowerVR    = "powervr-g6430"
	IDSnapdragon = IDAdreno506 // alias: the paper names the SoC
	IDNexus      = IDPowerVR   // alias: the paper names the device
)

// Quirk records a platform/benchmark/API combination that the paper reports
// as failing (driver bugs, datasets that do not fit) so that experiments can
// reproduce the published gaps in Figures 2 and 4.
type Quirk struct {
	Benchmark string
	API       hw.API // empty means every API
	Reason    string
}

// Platform bundles a device profile with its paper-reported quirks.
type Platform struct {
	ID      string
	Profile hw.Profile
	Quirks  []Quirk
}

// NewDevice instantiates a fresh simulated device for the platform.
func (p *Platform) NewDevice() (*hw.Device, error) { return hw.NewDevice(p.Profile) }

// Excluded reports whether the benchmark/API pair is excluded on this
// platform, along with the reason.
func (p *Platform) Excluded(benchmark string, api hw.API) (string, bool) {
	for _, q := range p.Quirks {
		if q.Benchmark == benchmark && (q.API == "" || q.API == api) {
			return q.Reason, true
		}
	}
	return "", false
}

// GTX1050Ti returns the NVIDIA GeForce GTX 1050 Ti (Pascal) platform from
// Table II.
func GTX1050Ti() *Platform {
	return &Platform{
		ID: IDGTX1050Ti,
		Profile: hw.Profile{
			Name:         "NVIDIA GTX1050Ti",
			Vendor:       "NVIDIA",
			Architecture: "Pascal",
			Class:        hw.ClassDesktop,

			OS:         "Ubuntu 16.04 64-bit",
			CPU:        "Intel(R) Core(TM) i5-2500K CPU 3.30GHz x4",
			HostMemGB:  16,
			DriverName: "Linux Display Driver 381.22",

			ComputeUnits: 6,
			ALUsPerCU:    128,
			CoreClockMHz: 1290,
			WarpSize:     32,

			PeakBandwidthGBps:   112,
			MemClockEffMHz:      7000,
			MemBusWidthBits:     128,
			CacheLineBytes:      128,
			SharedMemPerCUBytes: 96 << 10,
			DeviceMemBytes:      4 << 30,
			HostVisibleMemBytes: 16 << 30,
			TransferGBps:        12,
			TransferLatency:     9 * time.Microsecond,

			MaxWorkgroupInvocations: 1024,
			DispatchLatency:         3 * time.Microsecond,
			WorkgroupLaunchOverhead: 25 * time.Nanosecond,

			Drivers: map[hw.API]hw.DriverProfile{
				hw.APICUDA: {
					Supported:                 true,
					Version:                   "CUDA 8.0",
					KernelLaunchOverhead:      17 * time.Microsecond,
					SyncLatency:               22 * time.Microsecond,
					SubmitOverhead:            4 * time.Microsecond,
					PipelineBindOverhead:      1500 * time.Nanosecond,
					DescriptorUpdateOverhead:  400 * time.Nanosecond,
					PushConstantOverhead:      300 * time.Nanosecond,
					CompilerEfficiency:        0.92,
					MemoryEfficiency:          0.84,
					ScatteredMemoryEfficiency: 0.385,
					LocalMemoryAutoOpt:        true,
					LocalMemoryOptFactor:      0.60,
					JITCompileTime:            0,
					PipelineCreateTime:        90 * time.Microsecond,
					AllocOverhead:             60 * time.Microsecond,
					MaxPushConstantBytes:      4096,
				},
				hw.APIOpenCL: {
					Supported:                 true,
					Version:                   "OpenCL 1.2",
					KernelLaunchOverhead:      22 * time.Microsecond,
					SyncLatency:               28 * time.Microsecond,
					SubmitOverhead:            5 * time.Microsecond,
					PipelineBindOverhead:      1800 * time.Nanosecond,
					DescriptorUpdateOverhead:  500 * time.Nanosecond,
					PushConstantOverhead:      500 * time.Nanosecond,
					CompilerEfficiency:        0.88,
					MemoryEfficiency:          0.82,
					ScatteredMemoryEfficiency: 0.37,
					LocalMemoryAutoOpt:        true,
					LocalMemoryOptFactor:      0.60,
					JITCompileTime:            42 * time.Millisecond,
					PipelineCreateTime:        120 * time.Microsecond,
					AllocOverhead:             70 * time.Microsecond,
					MaxPushConstantBytes:      1024,
				},
				hw.APIVulkan: {
					Supported:                 true,
					Version:                   "API Version 1.0.42",
					KernelLaunchOverhead:      0,
					SubmitOverhead:            28 * time.Microsecond,
					SyncLatency:               12 * time.Microsecond,
					CommandRecordOverhead:     300 * time.Nanosecond,
					PipelineBindOverhead:      2500 * time.Nanosecond,
					BarrierOverhead:           800 * time.Nanosecond,
					DescriptorUpdateOverhead:  600 * time.Nanosecond,
					PushConstantOverhead:      150 * time.Nanosecond,
					CompilerEfficiency:        0.90,
					MemoryEfficiency:          0.796,
					ScatteredMemoryEfficiency: 0.64,
					LocalMemoryAutoOpt:        false,
					JITCompileTime:            0,
					PipelineCreateTime:        160 * time.Microsecond,
					AllocOverhead:             50 * time.Microsecond,
					MaxPushConstantBytes:      256,
				},
			},
		},
	}
}

// RX560 returns the AMD Radeon RX 560 (Polaris) platform from Table II.
func RX560() *Platform {
	return &Platform{
		ID: IDRX560,
		Profile: hw.Profile{
			Name:         "AMD RX560",
			Vendor:       "AMD",
			Architecture: "Polaris",
			Class:        hw.ClassDesktop,

			OS:         "Ubuntu 16.04 64-bit",
			CPU:        "Intel(R) Core(TM) i5-2500K CPU 3.30GHz x4",
			HostMemGB:  16,
			DriverName: "AMDGPU-Pro Driver 17.10",

			ComputeUnits: 16,
			ALUsPerCU:    64,
			CoreClockMHz: 1175,
			WarpSize:     64,

			PeakBandwidthGBps:   112,
			MemClockEffMHz:      7000,
			MemBusWidthBits:     128,
			CacheLineBytes:      128,
			SharedMemPerCUBytes: 64 << 10,
			DeviceMemBytes:      4 << 30,
			HostVisibleMemBytes: 16 << 30,
			TransferGBps:        12,
			TransferLatency:     10 * time.Microsecond,

			MaxWorkgroupInvocations: 1024,
			DispatchLatency:         4 * time.Microsecond,
			WorkgroupLaunchOverhead: 30 * time.Nanosecond,

			Drivers: map[hw.API]hw.DriverProfile{
				hw.APIOpenCL: {
					Supported:                 true,
					Version:                   "OpenCL 2.0",
					KernelLaunchOverhead:      17600 * time.Nanosecond,
					SyncLatency:               23 * time.Microsecond,
					SubmitOverhead:            6 * time.Microsecond,
					PipelineBindOverhead:      2000 * time.Nanosecond,
					DescriptorUpdateOverhead:  500 * time.Nanosecond,
					PushConstantOverhead:      500 * time.Nanosecond,
					CompilerEfficiency:        0.90,
					MemoryEfficiency:          0.715,
					ScatteredMemoryEfficiency: 0.37,
					LocalMemoryAutoOpt:        true,
					LocalMemoryOptFactor:      0.62,
					JITCompileTime:            55 * time.Millisecond,
					PipelineCreateTime:        140 * time.Microsecond,
					AllocOverhead:             75 * time.Microsecond,
					MaxPushConstantBytes:      1024,
				},
				hw.APIVulkan: {
					Supported:                 true,
					Version:                   "API Version 1.0.37",
					SubmitOverhead:            30 * time.Microsecond,
					SyncLatency:               10500 * time.Nanosecond,
					CommandRecordOverhead:     350 * time.Nanosecond,
					PipelineBindOverhead:      2800 * time.Nanosecond,
					BarrierOverhead:           1000 * time.Nanosecond,
					DescriptorUpdateOverhead:  700 * time.Nanosecond,
					PushConstantOverhead:      200 * time.Nanosecond,
					CompilerEfficiency:        0.86,
					MemoryEfficiency:          0.716,
					ScatteredMemoryEfficiency: 0.45,
					LocalMemoryAutoOpt:        false,
					PipelineCreateTime:        180 * time.Microsecond,
					AllocOverhead:             55 * time.Microsecond,
					MaxPushConstantBytes:      128,
				},
			},
		},
	}
}

// Adreno506 returns the Qualcomm Snapdragon 625 / Adreno 506 platform from
// Table III.
func Adreno506() *Platform {
	return &Platform{
		ID: IDAdreno506,
		Profile: hw.Profile{
			Name:         "Qualcomm Snapdragon 625",
			Vendor:       "Qualcomm",
			Architecture: "Adreno 506",
			Class:        hw.ClassMobile,

			OS:         "Android 7.0",
			CPU:        "ARM Cortex A53 x8",
			HostMemGB:  3,
			DriverName: "Adreno 506 (Android 7.0 vendor driver)",

			ComputeUnits: 1,
			ALUsPerCU:    96,
			CoreClockMHz: 650,
			WarpSize:     64,

			PeakBandwidthGBps:   3.6,
			MemClockEffMHz:      933,
			MemBusWidthBits:     32,
			CacheLineBytes:      64,
			SharedMemPerCUBytes: 32 << 10,
			DeviceMemBytes:      768 << 20,
			HostVisibleMemBytes: 2 << 30,
			UnifiedMemory:       true,
			TransferGBps:        3.0,
			TransferLatency:     20 * time.Microsecond,

			MaxWorkgroupInvocations: 512,
			DispatchLatency:         12 * time.Microsecond,
			WorkgroupLaunchOverhead: 120 * time.Nanosecond,

			Drivers: map[hw.API]hw.DriverProfile{
				hw.APIOpenCL: {
					Supported:                 true,
					Version:                   "OpenCL 2.0",
					KernelLaunchOverhead:      55 * time.Microsecond,
					SyncLatency:               60 * time.Microsecond,
					SubmitOverhead:            20 * time.Microsecond,
					PipelineBindOverhead:      6 * time.Microsecond,
					DescriptorUpdateOverhead:  2 * time.Microsecond,
					PushConstantOverhead:      2 * time.Microsecond,
					CompilerEfficiency:        0.90,
					MemoryEfficiency:          0.62,
					ScatteredMemoryEfficiency: 0.30,
					LocalMemoryAutoOpt:        false,
					JITCompileTime:            180 * time.Millisecond,
					PipelineCreateTime:        400 * time.Microsecond,
					AllocOverhead:             150 * time.Microsecond,
					MaxPushConstantBytes:      1024,
				},
				hw.APIVulkan: {
					Supported: true,
					Version:   "API Version 1.0.20",
					// The immature Snapdragon Vulkan driver (§V-B2): barriers,
					// descriptor updates and pipeline binds are far more
					// expensive than on the other platforms, and push constants
					// are demoted to buffer binds, so recording iterations in a
					// command buffer buys little.
					SubmitOverhead:            90 * time.Microsecond,
					SyncLatency:               60 * time.Microsecond,
					CommandRecordOverhead:     1500 * time.Nanosecond,
					PipelineBindOverhead:      10 * time.Microsecond,
					BarrierOverhead:           26 * time.Microsecond,
					DescriptorUpdateOverhead:  22 * time.Microsecond,
					PushConstantOverhead:      1 * time.Microsecond,
					PushConstantsAsBuffers:    true,
					CompilerEfficiency:        0.68,
					MemoryEfficiency:          0.55,
					ScatteredMemoryEfficiency: 0.27,
					LocalMemoryAutoOpt:        false,
					PipelineCreateTime:        700 * time.Microsecond,
					AllocOverhead:             140 * time.Microsecond,
					MaxPushConstantBytes:      128,
				},
			},
		},
		Quirks: []Quirk{
			{Benchmark: "cfd", Reason: "dataset does not fit in device memory (paper §V-B2)"},
			{Benchmark: "lud", API: hw.APIOpenCL, Reason: "OpenCL driver issue reported in §V-B2"},
		},
	}
}

// PowerVRG6430 returns the Google Nexus Player / Imagination PowerVR G6430
// platform from Table III.
func PowerVRG6430() *Platform {
	return &Platform{
		ID: IDPowerVR,
		Profile: hw.Profile{
			Name:         "Google Nexus Player",
			Vendor:       "Imagination",
			Architecture: "Rogue G6430",
			Class:        hw.ClassMobile,

			OS:         "Android 7.1",
			CPU:        "Intel Atom(TM) x4",
			HostMemGB:  1,
			DriverName: "PowerVR Rogue (libpvrcpt OpenCL, Android 7.1 Vulkan)",

			ComputeUnits: 4,
			ALUsPerCU:    32,
			CoreClockMHz: 533,
			WarpSize:     32,

			PeakBandwidthGBps:   3.2,
			MemClockEffMHz:      800,
			MemBusWidthBits:     32,
			CacheLineBytes:      64,
			SharedMemPerCUBytes: 16 << 10,
			DeviceMemBytes:      512 << 20,
			HostVisibleMemBytes: 1 << 30,
			UnifiedMemory:       true,
			TransferGBps:        2.5,
			TransferLatency:     25 * time.Microsecond,

			MaxWorkgroupInvocations: 512,
			DispatchLatency:         15 * time.Microsecond,
			WorkgroupLaunchOverhead: 150 * time.Nanosecond,

			Drivers: map[hw.API]hw.DriverProfile{
				hw.APIOpenCL: {
					Supported:                 true,
					Version:                   "OpenCL 1.2",
					KernelLaunchOverhead:      90999 * time.Nanosecond,
					SyncLatency:               104 * time.Microsecond,
					SubmitOverhead:            25 * time.Microsecond,
					PipelineBindOverhead:      7 * time.Microsecond,
					DescriptorUpdateOverhead:  2500 * time.Nanosecond,
					PushConstantOverhead:      2500 * time.Nanosecond,
					CompilerEfficiency:        0.85,
					MemoryEfficiency:          0.89,
					ScatteredMemoryEfficiency: 0.247,
					LocalMemoryAutoOpt:        false,
					JITCompileTime:            220 * time.Millisecond,
					PipelineCreateTime:        500 * time.Microsecond,
					AllocOverhead:             180 * time.Microsecond,
					MaxPushConstantBytes:      1024,
				},
				hw.APIVulkan: {
					Supported:                 true,
					Version:                   "API Version 1.0.30",
					SubmitOverhead:            80 * time.Microsecond,
					SyncLatency:               55 * time.Microsecond,
					CommandRecordOverhead:     500 * time.Nanosecond,
					PipelineBindOverhead:      6 * time.Microsecond,
					BarrierOverhead:           2 * time.Microsecond,
					DescriptorUpdateOverhead:  2 * time.Microsecond,
					PushConstantOverhead:      600 * time.Nanosecond,
					CompilerEfficiency:        0.84,
					MemoryEfficiency:          0.84,
					ScatteredMemoryEfficiency: 0.36,
					LocalMemoryAutoOpt:        false,
					PipelineCreateTime:        650 * time.Microsecond,
					AllocOverhead:             160 * time.Microsecond,
					MaxPushConstantBytes:      128,
				},
			},
		},
		Quirks: []Quirk{
			{Benchmark: "cfd", Reason: "dataset does not fit in device memory (paper §V-B2)"},
			{Benchmark: "backprop", Reason: "OpenCL and Vulkan implementations failed to run on Nexus (paper §V-B2)"},
		},
	}
}

// constructors lists each platform's constructor under its identifier, in
// paper order (desktop first, then mobile).
var constructors = []struct {
	id  string
	new func() *Platform
}{
	{IDGTX1050Ti, GTX1050Ti},
	{IDRX560, RX560},
	{IDPowerVR, PowerVRG6430},
	{IDAdreno506, Adreno506},
}

// All returns the four platforms in paper order (desktop first, then mobile).
func All() []*Platform {
	out := make([]*Platform, len(constructors))
	for i, c := range constructors {
		out[i] = c.new()
	}
	return out
}

// Desktop returns the two desktop platforms.
func Desktop() []*Platform { return []*Platform{GTX1050Ti(), RX560()} }

// Mobile returns the two mobile platforms.
func Mobile() []*Platform { return []*Platform{PowerVRG6430(), Adreno506()} }

// ByID returns the platform with the given identifier. It constructs that
// platform alone, and every constructor returns a fresh profile, driver map
// and quirk slice, so the platform is private to the caller, which may set
// its knobs without copying it first.
func ByID(id string) (*Platform, error) {
	for _, c := range constructors {
		if c.id == id {
			return c.new(), nil
		}
	}
	return nil, fmt.Errorf("platforms: unknown platform %q (known: %v)", id, IDs())
}

// IDs returns the sorted identifiers of all platforms.
func IDs() []string {
	ids := make([]string, len(constructors))
	for i, c := range constructors {
		ids[i] = c.id
	}
	sort.Strings(ids)
	return ids
}
