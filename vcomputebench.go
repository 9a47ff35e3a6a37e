// Package vcomputebench is the public facade of the VComputeBench library: a
// Go reproduction of "VComputeBench: A Vulkan Benchmark Suite for GPGPU on
// Mobile and Embedded GPUs" (Mammeri & Juurlink, IISWC 2018).
//
// It exposes the benchmark suite, the simulated experimental platforms and the
// paper's experiments (every table and figure) behind a small API; the
// detailed layers (the Vulkan/CUDA/OpenCL front ends and the GPU simulator)
// live under internal/ and are exercised through the suite.
package vcomputebench

import (
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	_ "vcomputebench/internal/rodinia/suite"
)

// API identifies a GPGPU programming model front end.
type API = hw.API

// The three programming models compared by the paper.
const (
	Vulkan = hw.APIVulkan
	CUDA   = hw.APICUDA
	OpenCL = hw.APIOpenCL
)

// Benchmark is one VComputeBench workload.
type Benchmark = core.Benchmark

// Workload is one input configuration of a benchmark.
type Workload = core.Workload

// Result is the outcome of one benchmark run.
type Result = core.Result

// Runner measures benchmarks: each cell executes once on a fresh simulated
// device, and its result reports that deterministic run (the paper's average
// of several runs is the one run).
type Runner = core.Runner

// Platform is one of the paper's experimental platforms.
type Platform = platforms.Platform

// Experiment reproduces one table or figure of the paper.
type Experiment = experiments.Experiment

// ExperimentOptions configures an experiment run.
type ExperimentOptions = experiments.Options

// Document is the rendered output of an experiment.
type Document = report.Document

// Benchmarks returns every registered benchmark (the nine Rodinia ports plus
// the two microbenchmarks), sorted by name.
func Benchmarks() []Benchmark { return core.All() }

// BenchmarkByName returns a registered benchmark.
func BenchmarkByName(name string) (Benchmark, error) { return core.Get(name) }

// Platforms returns the four experimental platforms of Tables II and III.
func Platforms() []*Platform { return platforms.All() }

// PlatformByID returns a platform by identifier (e.g. "gtx1050ti", "rx560",
// "adreno506", "powervr-g6430").
func PlatformByID(id string) (*Platform, error) { return platforms.ByID(id) }

// NewRunner returns a runner with the default input seed.
func NewRunner() *Runner { return core.NewRunner() }

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment (e.g. "fig2a", "table1", "summary").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// ResultsSchemaVersion is the version of the JSON results schema produced by
// EncodeResultsJSON (see internal/report/json.go for the version policy).
const ResultsSchemaVersion = report.SchemaVersion

// EncodeResultsJSON serialises experiment documents under the stable,
// versioned JSON results schema (series gaps as null, durations as integer
// nanoseconds).
func EncodeResultsJSON(docs []*Document) ([]byte, error) { return report.EncodeJSON(docs) }

// DecodeResultsJSON parses a results file produced by EncodeResultsJSON,
// rejecting schema versions this build does not understand.
func DecodeResultsJSON(data []byte) ([]*Document, error) { return report.DecodeJSON(data) }
