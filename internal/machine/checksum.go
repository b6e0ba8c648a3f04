package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Encode returns the Result's canonical JSON encoding and the hex
// SHA-256 digest of those bytes. Two runs of the same configuration
// must produce the same pair on any platform: every field of Result is
// plain integer data, and encoding/json serializes struct fields in
// declaration order, so the digest is a stable fingerprint of the
// complete measurement set (timing, per-unit stats, traffic counters).
// A caller that keeps the bytes (memsimd's result cache) holds exactly
// what the checksum was taken over.
func (r Result) Encode() (canonical []byte, checksum string) {
	b, err := json.Marshal(r)
	if err != nil {
		// Result holds only integers and slices thereof; Marshal cannot
		// fail unless the struct grows an unsupported type.
		panic(fmt.Sprintf("machine: Result not JSON-encodable: %v", err))
	}
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:])
}

// Checksum returns the digest half of Encode.
//
// The golden-result harness (golden_test.go at the repository root)
// pins these digests across engine rewrites.
func (r Result) Checksum() string {
	_, sum := r.Encode()
	return sum
}
