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
// Result in canonical encoding, and that encoding's checksum
// (machine.Result.Encode). A run is encoded once, when it completes or
// when its file is loaded and verified; every reply that carries the
// result afterwards serves these bytes.
type CacheEntry struct {
	ID       string              `json:"id"`
	Key      string              `json:"key"`
	Spec     experiments.RunSpec `json:"spec"`
	Checksum string              `json:"checksum"`
	Result   json.RawMessage     `json:"result"`

	hit []byte // the finished body of a cache hit's 200 reply
}

// newCacheEntry makes a run's one encoding: the canonical Result, its
// checksum, and the hit reply around them.
func newCacheEntry(id, key string, spec experiments.RunSpec, res machine.Result) *CacheEntry {
	e := &CacheEntry{ID: id, Key: key, Spec: spec}
	e.Result, e.Checksum = res.Encode()
	hit, err := json.Marshal(e.response(true))
	if err != nil {
		// Strings and bytes Encode just produced: Marshal cannot fail.
		panic(fmt.Sprintf("server: hit reply for %s not JSON-encodable: %v", key, err))
	}
	e.hit = append(hit, '\n')
	return e
}

// response is the wire reply of a done job. A cached one carries its
// finished encoding, so serving it copies bytes and encodes nothing.
func (e *CacheEntry) response(cached bool) JobResponse {
	r := JobResponse{ID: e.ID, Key: e.Key, Status: string(experiments.StatusDone),
		Cached: cached, Checksum: e.Checksum, Result: e.Result}
	if cached {
		r.body = e.hit
	}
	return r
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
	var stored CacheEntry
	var res machine.Result
	if json.Unmarshal(buf, &stored) != nil || stored.ID != id || json.Unmarshal(stored.Result, &res) != nil {
		return nil, false
	}
	// The entry served is re-encoded from the decoded Result, never the
	// file's own bytes, and only if it reproduces the stored checksum.
	e = newCacheEntry(id, stored.Key, stored.Spec, res)
	if e.Checksum != stored.Checksum {
		return nil, false // corrupt: a miss, never a wrong result
	}
	c.mu.Lock()
	c.mem[id] = e
	c.mu.Unlock()
	return e, true
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
