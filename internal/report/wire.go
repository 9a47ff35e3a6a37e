// The serve wire envelope: the HTTP body format of the vcbench serve API.
// It is the results envelope of json.go with its two additive fields set —
// a structured error and a degraded marker — so one envelope shape covers
// success, degraded-but-answered and failure responses alike, and a client
// never has to parse two formats. A clean response encodes byte-identically
// to a plain EncodeJSON call over the same documents, which is what ties the
// served bytes back to an offline run.
package report

// WireError is the structured error of a serve envelope. Class is the core
// failure-taxonomy bucket ("transient", "permanent", "excluded") or a
// request-level class ("bad-request", "shed", "draining", "deadline"); the
// HTTP status code is derived from it, never the other way around, so the
// taxonomy stays the single source of truth.
type WireError struct {
	Class   string `json:"class"`
	Message string `json:"message"`
	// Attempts is how many executions the retry budget spent before the cell
	// was given up (0 when the request never reached execution).
	Attempts int `json:"attempts,omitempty"`
}

// EncodeWire serialises a serve response envelope: the documents (nil on
// failure responses), an optional structured error, and a degraded marker
// that is forced true whenever any document carries failed cells. Output is
// deterministic, indented, newline-terminated — identical requests must yield
// byte-identical bodies.
func EncodeWire(docs []*Document, werr *WireError) ([]byte, error) {
	env := &jsonEnvelope{Error: werr}
	for _, d := range docs {
		if d.Degraded() {
			env.Degraded = true
		}
	}
	return env.encode(docs)
}

// DecodeWire parses a serve envelope, returning the documents, the error (nil
// on clean responses) and the degraded marker. It accepts plain EncodeJSON
// output too — the serve fields are additive and simply absent there.
func DecodeWire(data []byte) ([]*Document, *WireError, bool, error) {
	env, docs, err := decodeEnvelope(data)
	if err != nil {
		return nil, nil, false, err
	}
	return docs, env.Error, env.Degraded, nil
}
