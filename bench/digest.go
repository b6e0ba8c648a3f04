package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// digest hashes the keyed outputs of a pass in the order they came.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(key, value string) { fmt.Fprintf(d.h, "%s=%s\n", key, value) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
