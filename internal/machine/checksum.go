package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
	b, err := json.Marshal(r)
	if err != nil {
		// Result holds only integers and slices thereof; Marshal cannot
		// fail unless the struct grows an unsupported type.
		panic(fmt.Sprintf("machine: Result not JSON-encodable: %v", err))
	}
	// The digest is over the object closed where Events begins; the one
	// Marshal serves both, with a brace lent to the member's comma.
	i := bytes.LastIndex(b, []byte(`,"Events":`))
	if i < 0 || bytes.IndexByte(b[i+1:], ',') >= 0 {
		panic("machine: Events is not the last member of Result's encoding")
	}
	b[i] = '}'
	h := sha256.New()
	fmt.Fprintf(h, "timing revision %d\n", TimingRevision)
	h.Write(b[:i+1])
	b[i] = ','
	return b, hex.EncodeToString(h.Sum(nil))
}

// Checksum returns the digest half of Encode.
//
// The golden-result harness (golden_test.go at the repository root)
// pins these digests across engine rewrites.
func (r Result) Checksum() string {
	_, sum := r.Encode()
	return sum
}
