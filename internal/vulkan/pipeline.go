package vulkan

import (
	"fmt"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/spirv"
)

// ShaderModuleCreateInfo configures CreateShaderModule. Code is the SPIR-V
// word stream produced offline from GLSL (internal/glsl in this repository).
type ShaderModuleCreateInfo struct {
	Code []uint32
}

// ShaderModule wraps a validated SPIR-V module.
type ShaderModule struct {
	device *Device
	module *spirv.Module
	code   []uint32
}

// CreateShaderModule validates and wraps a SPIR-V binary.
func (d *Device) CreateShaderModule(info ShaderModuleCreateInfo) (*ShaderModule, error) {
	if len(info.Code) == 0 {
		return nil, fmt.Errorf("%w: empty SPIR-V code", ErrValidation)
	}
	mod, err := spirv.Decode(info.Code)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidShader, err)
	}
	d.host.Spend(hw.FixedCost(3 * hostCallOverhead))
	return &ShaderModule{device: d, module: mod, code: info.Code}, nil
}

// EntryPoint returns the module's entry point name.
func (s *ShaderModule) EntryPoint() string { return s.module.EntryPoint }

// Destroy destroys the module.
func (s *ShaderModule) Destroy() { s.device.host.Spend(hostCall) }

// ShaderStageFlags identifies pipeline stages.
type ShaderStageFlags uint32

// Stage bits.
const (
	ShaderStageComputeBit ShaderStageFlags = 1 << iota
)

// PipelineShaderStageCreateInfo describes the single compute stage of a
// compute pipeline.
type PipelineShaderStageCreateInfo struct {
	Stage  ShaderStageFlags
	Module *ShaderModule
	Name   string
}

// PushConstantRange declares a push constant range of a pipeline layout.
type PushConstantRange struct {
	StageFlags ShaderStageFlags
	Offset     int
	Size       int
}

// PipelineLayoutCreateInfo configures CreatePipelineLayout.
type PipelineLayoutCreateInfo struct {
	SetLayouts         []*DescriptorSetLayout
	PushConstantRanges []PushConstantRange
}

// PipelineLayout describes the resource interface of a pipeline.
type PipelineLayout struct {
	device     *Device
	setLayouts []*DescriptorSetLayout
	pushBytes  int
}

// CreatePipelineLayout creates a pipeline layout, validating the push constant
// budget against the device limit (§VI-B: 256 B on GTX 1050 Ti, 128 B on the
// other platforms).
func (d *Device) CreatePipelineLayout(info PipelineLayoutCreateInfo) (*PipelineLayout, error) {
	pushBytes := 0
	for _, r := range info.PushConstantRanges {
		if r.Offset < 0 || r.Size <= 0 {
			return nil, fmt.Errorf("%w: invalid push constant range offset=%d size=%d",
				ErrValidation, r.Offset, r.Size)
		}
		if end := r.Offset + r.Size; end > pushBytes {
			pushBytes = end
		}
	}
	if limit := d.driver.MaxPushConstantBytes; limit > 0 && pushBytes > limit {
		return nil, fmt.Errorf("%w: push constant range of %d bytes exceeds device limit of %d bytes",
			ErrValidation, pushBytes, limit)
	}
	d.host.Spend(hostCall)
	return &PipelineLayout{device: d, setLayouts: info.SetLayouts, pushBytes: pushBytes}, nil
}

// Destroy destroys the layout.
func (l *PipelineLayout) Destroy() { l.device.host.Spend(hostCall) }

// ComputePipelineCreateInfo configures CreateComputePipelines.
type ComputePipelineCreateInfo struct {
	Stage  PipelineShaderStageCreateInfo
	Layout *PipelineLayout
}

// Pipeline is a compiled compute pipeline: the driver has resolved the SPIR-V
// entry point to an executable kernel.
type Pipeline struct {
	device  *Device
	layout  *PipelineLayout
	program *kernels.Program
	module  *spirv.Module
}

// Program exposes the resolved kernel program (used by tests).
func (p *Pipeline) Program() *kernels.Program { return p.program }

// Destroy destroys the pipeline.
func (p *Pipeline) Destroy() { p.device.host.Spend(hostCall) }

// CreateComputePipelines compiles one compute pipeline per create info. This
// is where the driver's SPIR-V compiler runs; its cost comes from the driver
// profile's PipelineCreateTime.
func (d *Device) CreateComputePipelines(infos ...ComputePipelineCreateInfo) ([]*Pipeline, error) {
	pipelines := make([]*Pipeline, 0, len(infos))
	for i, info := range infos {
		if info.Stage.Module == nil {
			return nil, fmt.Errorf("%w: pipeline %d has no shader module", ErrValidation, i)
		}
		if info.Stage.Stage != ShaderStageComputeBit {
			return nil, fmt.Errorf("%w: pipeline %d stage must be COMPUTE", ErrValidation, i)
		}
		if info.Layout == nil {
			return nil, fmt.Errorf("%w: pipeline %d has no layout", ErrValidation, i)
		}
		mod := info.Stage.Module.module
		entry := info.Stage.Name
		if entry == "" {
			entry = mod.EntryPoint
		}
		if entry != mod.EntryPoint {
			return nil, fmt.Errorf("%w: entry point %q not found in module (module declares %q)",
				ErrInvalidShader, entry, mod.EntryPoint)
		}
		prog, err := kernels.Lookup(entry)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidShader, err)
		}
		if prog.LocalSize.X != mod.LocalSizeX || prog.LocalSize.Y != mod.LocalSizeY || prog.LocalSize.Z != mod.LocalSizeZ {
			return nil, fmt.Errorf("%w: module local size (%d,%d,%d) does not match kernel %v",
				ErrInvalidShader, mod.LocalSizeX, mod.LocalSizeY, mod.LocalSizeZ, prog.LocalSize)
		}
		if len(mod.Bindings) < prog.Bindings {
			return nil, fmt.Errorf("%w: module declares %d bindings, kernel %q requires %d",
				ErrInvalidShader, len(mod.Bindings), prog.Name, prog.Bindings)
		}
		if prog.PushConstantWords*4 > info.Layout.pushBytes && prog.PushConstantWords > 0 {
			return nil, fmt.Errorf("%w: kernel %q needs %d push constant bytes, layout provides %d",
				ErrValidation, prog.Name, prog.PushConstantWords*4, info.Layout.pushBytes)
		}
		d.host.Spend(hw.KnobCost(hw.KnobPipelineCreate))
		pipelines = append(pipelines, &Pipeline{device: d, layout: info.Layout, program: prog, module: mod})
	}
	return pipelines, nil
}
