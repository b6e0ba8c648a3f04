package cpu

import (
	"fmt"
	"sort"

	"memsim/internal/isa"
)

// privPageWords is the size of one private-memory page in 8-byte words.
const privPageWords = 1024

// PrivMem is a processor's private local memory: a sparse paged store
// of 64-bit words, addressed at and above isa.PrivBase. Uninitialized
// words read as zero. Private memory is never cached and never on the
// network; its only cost is the load delay.
type PrivMem struct {
	pages map[uint64][]uint64
	spare [][]uint64 // zeroed pages of earlier runs, taken before allocating
}

// NewPrivMem returns an empty private memory.
func NewPrivMem() *PrivMem {
	return &PrivMem{pages: make(map[uint64][]uint64)}
}

func privIndex(addr uint64) (page, off uint64) {
	if addr < isa.PrivBase {
		panic(fmt.Sprintf("cpu: private access to shared address %#x", addr))
	}
	if addr%8 != 0 {
		panic(fmt.Sprintf("cpu: unaligned private access %#x", addr))
	}
	w := (addr - isa.PrivBase) / 8
	return w / privPageWords, w % privPageWords
}

// Read returns the word at addr.
func (p *PrivMem) Read(addr uint64) uint64 {
	page, off := privIndex(addr)
	pg := p.pages[page]
	if pg == nil {
		return 0
	}
	return pg[off]
}

// Write stores v at addr.
func (p *PrivMem) Write(addr uint64, v uint64) {
	page, off := privIndex(addr)
	pg := p.pages[page]
	if pg == nil {
		if n := len(p.spare); n > 0 {
			pg, p.spare = p.spare[n-1], p.spare[:n-1]
		} else {
			pg = make([]uint64, privPageWords)
		}
		p.pages[page] = pg
	}
	pg[off] = v
}

// reset empties the store, as NewPrivMem leaves it, keeping its pages
// zeroed on the spare list.
func (p *PrivMem) reset() {
	for _, pg := range p.pages {
		clear(pg)
		p.spare = append(p.spare, pg)
	}
	clear(p.pages)
}

// Words returns the number of allocated pages times the page size — a
// footprint metric for tests.
func (p *PrivMem) Words() int { return len(p.pages) * privPageWords }

// save serializes the allocated pages, sorted by page number so
// snapshot bytes are deterministic.
func (p *PrivMem) save() []PrivPage {
	out := make([]PrivPage, 0, len(p.pages))
	for page := range p.pages {
		out = append(out, PrivPage{Page: page})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	for i := range out {
		words := make([]uint64, privPageWords)
		copy(words, p.pages[out[i].Page])
		out[i].Words = words
	}
	return out
}

// load restores the paged store from a snapshot.
func (p *PrivMem) load(pages []PrivPage) {
	for _, pg := range pages {
		words := make([]uint64, privPageWords)
		copy(words, pg.Words)
		p.pages[pg.Page] = words
	}
}
