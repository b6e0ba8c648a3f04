package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"

	"memsim/internal/robust"
)

// Snapshot file format: a fixed header followed by a gob-encoded
// Snapshot. The header makes corruption and version skew detectable
// before decoding:
//
//	offset 0  4 bytes  magic "MCSP"
//	offset 4  4 bytes  format version, little-endian
//	offset 8  8 bytes  payload length, little-endian
//	offset 16 32 bytes SHA-256 of the payload
//	offset 48 ...      gob(Snapshot)
const (
	snapMagic   = "MCSP"
	snapVersion = 4
	snapHeader  = 48
)

// oldFormats says why a format gob would decode cannot continue here.
var oldFormats = map[uint32]string{
	2: "a version-2 run ordered a cycle's events by creation and parked spinners behind ghost events",
	3: "a version-3 run freed every network port with an event of its own and saved a busy flag where this build saves the cycle a port frees",
}

// WriteSnapshotFile encodes a snapshot behind the header and publishes
// it atomically and durably (robust.PublishFile), so a crash never
// leaves a partial or vanishing file at path.
func WriteSnapshotFile(path string, s *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("machine: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	buf := make([]byte, snapHeader, snapHeader+payload.Len())
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[4:], snapVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(payload.Len()))
	copy(buf[16:], sum[:])
	buf = append(buf, payload.Bytes()...)
	if err := robust.PublishFile(path, buf); err != nil {
		return fmt.Errorf("machine: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile reads and verifies a snapshot written by
// WriteSnapshotFile. Corruption — bad magic, unknown version, a
// truncated payload, or a checksum mismatch — is reported as an error,
// never decoded.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine: reading snapshot: %w", err)
	}
	if len(buf) < snapHeader || string(buf[:4]) != snapMagic {
		return nil, fmt.Errorf("machine: %s is not a snapshot file", path)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != snapVersion {
		why := ""
		if w, ok := oldFormats[v]; ok {
			why = " (" + w + "; this build cannot continue it)"
		}
		return nil, fmt.Errorf("machine: snapshot %s has format version %d, want %d%s", path, v, snapVersion, why)
	}
	n := binary.LittleEndian.Uint64(buf[8:])
	if uint64(len(buf)-snapHeader) != n {
		return nil, fmt.Errorf("machine: snapshot %s truncated: header claims %d payload bytes, file has %d",
			path, n, len(buf)-snapHeader)
	}
	sum := sha256.Sum256(buf[snapHeader:])
	if !bytes.Equal(sum[:], buf[16:48]) {
		return nil, fmt.Errorf("machine: snapshot %s is corrupt (checksum mismatch)", path)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf[snapHeader:])).Decode(&s); err != nil {
		return nil, fmt.Errorf("machine: decoding snapshot %s: %w", path, err)
	}
	return &s, nil
}
