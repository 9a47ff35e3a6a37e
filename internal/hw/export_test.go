package hw

// Exports for the external fuzz test, which links every registered kernel
// program so that real recorded traces decode.
var (
	CodecTestRegistry = codecTestRegistry
	ReplayDecoded     = replayDecoded
)
