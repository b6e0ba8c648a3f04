package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"memsim/internal/experiments"
	"memsim/internal/machine"
	"memsim/internal/robust"
)

// jobID content-addresses a run: SHA-256 over the parameter preset
// (which fixes the simulated programs — benchmark sizes, data seed,
// processor count — and so stands in for the program hash) and the
// canonical normalized spec key. Identical submissions hash
// identically; any change to program or configuration changes the id.
func jobID(paramsJSON []byte, key string) string {
	h := sha256.New()
	h.Write(paramsJSON)
	h.Write([]byte{0})
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// CacheEntry is one completed run: the spec that produced it, its
// Result, and the Result's own canonical checksum. The checksum is
// stored redundantly so a loaded entry proves itself: an entry whose
// Result no longer reproduces Checksum is corrupt and is never served.
type CacheEntry struct {
	ID       string              `json:"id"`
	Key      string              `json:"key"`
	Spec     experiments.RunSpec `json:"spec"`
	Checksum string              `json:"checksum"`
	Result   machine.Result      `json:"result"`
}

// Cache is the content-addressed result store: an in-memory map over
// an optional on-disk directory of one JSON file per entry. Disk
// writes are atomic (temp file, fsync, rename, directory fsync), so a
// kill -9 mid-write never leaves a partial entry, and every disk read
// re-verifies the entry's checksum, so a corrupt file degrades to a
// cache miss — a rerun — never to a wrong result.
type Cache struct {
	dir string // "" = memory-only

	mu  sync.Mutex
	mem map[string]*CacheEntry
}

// NewCache opens (creating if needed) the cache directory; dir == ""
// makes a memory-only cache.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating cache directory: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string]*CacheEntry)}, nil
}

func (c *Cache) path(id string) string {
	return filepath.Join(c.dir, id+".json")
}

// Get returns the verified entry for an id, consulting memory first
// and falling back to disk.
func (c *Cache) Get(id string) (*CacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.mem[id]
	c.mu.Unlock()
	if ok {
		return e, true
	}
	if c.dir == "" {
		return nil, false
	}
	buf, err := os.ReadFile(c.path(id))
	if err != nil {
		return nil, false
	}
	var loaded CacheEntry
	if err := json.Unmarshal(buf, &loaded); err != nil {
		return nil, false
	}
	if loaded.ID != id || loaded.Checksum == "" || loaded.Result.Checksum() != loaded.Checksum {
		return nil, false // corrupt or mislabeled: a miss, never a wrong result
	}
	c.mu.Lock()
	c.mem[id] = &loaded
	c.mu.Unlock()
	return &loaded, true
}

// Put stores an entry in memory and, when the cache is disk-backed,
// persists it atomically. The in-memory copy is installed even when
// the disk write fails: the result is correct either way, persistence
// only decides whether it survives a restart.
func (c *Cache) Put(e *CacheEntry) error {
	c.mu.Lock()
	c.mem[e.ID] = e
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("server: encoding cache entry: %w", err)
	}
	if err := robust.PublishFile(c.path(e.ID), buf); err != nil {
		return fmt.Errorf("server: persisting cache entry: %w", err)
	}
	return nil
}

// Len reports how many entries are resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
