package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// TimingRevision names the simulated timing. Checksums are taken over
// it, so what another revision simulated no longer verifies; moving the
// golden corpora bumps it (testdata/golden/timing-revision.json).
const TimingRevision = 1

// Encode returns the Result's canonical JSON encoding and the hex
// SHA-256 digest of what it says about the simulated machine: the
// timing revision, then those bytes less Events, the last member, since
// what a run cost in engine events is the host's business (spin
// fast-forward exists to lower it). Two runs of the same configuration
// must produce the same digest on any platform: every field of Result
// is plain integer data, and encoding/json serializes struct fields in
// declaration order, so the digest is a stable fingerprint of the
// complete measurement set. A caller that keeps the bytes (memsimd's
// result cache) holds what the checksum was taken over behind the
// revision, and the event count beside it.
func (r Result) Encode() (canonical []byte, checksum string) {
	var buf bytes.Buffer
	encode(&buf, r)
	b := buf.Bytes()[:buf.Len()-1] // less the newline
	return b, digest(b)
}

// Checksum returns the digest half of Encode. It hashes the encoding in
// the encoder's own pooled buffer and keeps no copy of it.
//
// The golden-result harness (golden_test.go at the repository root)
// pins these digests across engine rewrites.
func (r Result) Checksum() string {
	var s summer
	encode(&s, r)
	return s.sum
}

// summer keeps the digest of the one Result an Encoder writes to it.
type summer struct{ sum string }

func (s *summer) Write(b []byte) (int, error) {
	s.sum = digest(b[:len(b)-1])
	return len(b), nil
}

// encode writes r's canonical encoding, json.Marshal's bytes, and a
// newline to w in one Write.
func encode(w io.Writer, r Result) {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		// Result holds only integers and slices thereof; encoding cannot
		// fail unless the struct grows an unsupported type.
		panic(fmt.Sprintf("machine: Result not JSON-encodable: %v", err))
	}
}

// digest is the checksum of a Result's canonical encoding b: the hex
// SHA-256 of the timing revision, then b closed where Events begins.
func digest(b []byte) string {
	i := bytes.LastIndex(b, []byte(`,"Events":`))
	if i < 0 || bytes.IndexByte(b[i+1:], ',') >= 0 {
		panic("machine: Events is not the last member of Result's encoding")
	}
	h := sha256.New()
	fmt.Fprintf(h, "timing revision %d\n", TimingRevision)
	h.Write(b[:i])
	h.Write([]byte{'}'})
	return hex.EncodeToString(h.Sum(nil))
}
