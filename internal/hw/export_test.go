package hw

import "vcomputebench/internal/kernels"

// Exports for the external fuzz test, which links every registered kernel
// program so that real recorded traces decode.
var (
	CodecTestRegistry = codecTestRegistry
	ReplayDecoded     = replayDecoded
)

// MemoHit computes the memo key of a dispatch and looks it up, the work a
// memo hit adds to a dispatch (BenchmarkDispatchMemoHit).
func MemoHit(m *DispatchMemo, prog *kernels.Program, cfg *kernels.DispatchConfig, binds []Binding) bool {
	_, ok := m.dispatches[m.key(prog, cfg, binds)]
	return ok
}

// DeviceMemo returns the memo the device runs on.
func DeviceMemo(d *Device) *DispatchMemo { return d.mem.memo }

// MemoCopies reports how many content copies the memo holds.
func MemoCopies(m *DispatchMemo) int { return len(m.contents) }

// RunWords returns the words of the allocation's runs of words: none while
// its content is private words or zeros.
func RunWords(a *Allocation) []kernels.Words {
	var out []kernels.Words
	for _, r := range a.runs {
		if r.words != nil {
			out = append(out, r.words)
		}
	}
	return out
}

// StreamOf returns the stream whose first Len() words are the allocation's
// content, when that content is one named run.
func StreamOf(a *Allocation) (StreamID, bool) {
	if id := a.named(); id != nil {
		return *id, true
	}
	return StreamID{}, false
}

// Version names the allocation's content as the memo's keys do.
func Version(m *DispatchMemo, a *Allocation) [2]uint64 { return m.version(a) }
