package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. parent is the index of the
// span that caused it (-1 for a pass root); spans of one pass share
// the pass number. lane separates concurrent clients in the Chrome
// trace and is inherited from the parent.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	pass       int
	lane       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the code of traced ones.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	pass   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent, in its parent's lane, and returns
// its index.
func (t *tracer) begin(parent int, name string) int { return t.beginLane(parent, name, -1) }

// beginLane is begin for the first span of a concurrent client, which
// starts a lane of its own.
func (t *tracer) beginLane(parent int, name string, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case lane >= 0:
	case parent >= 0:
		lane = t.spans[parent].lane
	default:
		lane = 0
	}
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, pass: t.pass, lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of that interval its child spans cover, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		covered, upto := time.Duration(0), s.start
		for _, k := range kids {
			ks, ke := t.spans[k].start, t.spans[k].end
			if ks < upto {
				ks = upto
			}
			if ke > s.end {
				ke = s.end
			}
			if ke > ks {
				covered += ke - ks
				upto = ke
			}
		}
		self[s.name] += (s.end - s.start - covered).Seconds()
	}
	return self
}

// durations sums span durations per name, in seconds.
func (t *tracer) durations() map[string]float64 {
	d := make(map[string]float64)
	for _, s := range t.spans {
		d[s.name] += (s.end - s.start).Seconds()
	}
	return d
}

// writeChrome writes the spans as a Chrome trace-event file
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i, "parent": s.parent, "pass": s.pass},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
