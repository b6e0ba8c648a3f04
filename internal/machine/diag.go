package machine

import (
	"fmt"
	"sort"
	"strings"

	"memsim/internal/memory"
)

// diagTraceEvents is how many trailing trace events a failure dump
// includes when a tracer is attached.
const diagTraceEvents = 16

// Diagnostics renders a human-readable dump of the machine's live
// state: per-processor status and outstanding references, MSHR
// contents, network buffer occupancy, directory state for every line
// with a miss in flight, and (when a tracer is attached) the last
// lastEvents trace events. It reads state only and is safe at any
// cycle; Run attaches it to every SimError it returns.
func (m *Machine) Diagnostics(lastEvents int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== diagnostic dump @ cycle %d (%d/%d processors halted) ===\n",
		m.Eng.Now(), m.halted, m.cfg.Procs)

	sb.WriteString("processors:\n")
	for i, c := range m.cpus {
		why := c.ParkedReason()
		fmt.Fprintf(&sb, "  cpu%-3d pc=%-6d state=%-11s outstanding=%d", i, c.PC(), why, c.OutstandingRefs())
		if why == "spin" {
			fmt.Fprintf(&sb, " watching line %#x", c.SpinLine())
		}
		sb.WriteByte('\n')
	}

	sb.WriteString("MSHRs:\n")
	lines := map[uint64]bool{}
	anyMSHR := false
	for i, c := range m.caches {
		ms := c.SnapshotMSHRs()
		if len(ms) == 0 {
			continue
		}
		anyMSHR = true
		fmt.Fprintf(&sb, "  cache%-2d", i)
		for _, h := range ms {
			lines[h.Line] = true
			mode := "read"
			if h.Excl {
				mode = "own"
			}
			if h.Prefetch {
				mode += "-prefetch"
			}
			fmt.Fprintf(&sb, " [line %#x %s]", h.Line, mode)
		}
		sb.WriteByte('\n')
	}
	if !anyMSHR {
		sb.WriteString("  (none in flight)\n")
	}

	req, resp := m.reqNet.Occupancy(), m.respNet.Occupancy()
	fmt.Fprintf(&sb, "networks:\n  request : in-flight=%-3d entrance=%v\n  response: in-flight=%-3d entrance=%v\n",
		req.InFlight, req.Entrance, resp.InFlight, resp.Entrance)

	sb.WriteString("memory modules:\n")
	for i, mod := range m.modules {
		q, busy := mod.QueueDepth()
		if q > 0 || busy {
			fmt.Fprintf(&sb, "  module%-2d queued=%d busy=%v\n", i, q, busy)
		}
	}

	sb.WriteString("directory (lines with misses in flight):\n")
	sorted := make([]uint64, 0, len(lines))
	for line := range lines {
		sorted = append(sorted, line)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, line := range sorted {
		home := memory.ModuleFor(line, m.cfg.LineSize, m.cfg.Procs)
		e, ok := m.modules[home].DirEntry(line)
		if !ok {
			fmt.Fprintf(&sb, "  line %#x @ module %d: no entry\n", line, home)
			continue
		}
		fmt.Fprintf(&sb, "  line %#x @ module %d: state=%s sharers=%v owner=%d parked=%d\n",
			line, home, e.State, e.Sharers, e.Owner, e.Pending)
	}
	if len(sorted) == 0 {
		sb.WriteString("  (none)\n")
	}

	if evs := m.tracer.Events(); len(evs) > 0 {
		if lastEvents > 0 && len(evs) > lastEvents {
			evs = evs[len(evs)-lastEvents:]
		}
		fmt.Fprintf(&sb, "trace (last %d of %d events):\n", len(evs), m.tracer.Total())
		for _, e := range evs {
			sb.WriteString("  ")
			sb.WriteString(e.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
