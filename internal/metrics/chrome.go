package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export. One simulated cycle is written as one
// microsecond of trace time, so a run opens directly in Perfetto or
// chrome://tracing with cycle numbers readable off the time axis.
//
// Track layout: pid 0 holds one thread per processor carrying its
// stall slices as complete ("X") events; pid 1 carries machine-wide
// counter ("C") tracks from the epoch sampler — average/max memory
// module utilization, network flit rates, and total MSHR occupancy.

type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Cat  string                 `json:"cat,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace writes the collected timeline and utilization
// series in Chrome trace-event format. Safe on a nil collector (an
// empty but valid trace).
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	t := chromeTrace{TraceEvents: []chromeEvent{}}
	add := func(e chromeEvent) { t.TraceEvents = append(t.TraceEvents, e) }

	add(chromeEvent{Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]interface{}{"name": "memsim processors"}})
	add(chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]interface{}{"name": "memsim utilization"}})

	if c != nil {
		for cpu := range c.st.Stalls {
			add(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: cpu,
				Args: map[string]interface{}{"name": fmt.Sprintf("cpu%d", cpu)}})
		}
		for _, s := range c.st.Slices {
			add(chromeEvent{Name: s.Cause.String(), Ph: "X", Cat: "stall",
				Ts: s.Start, Dur: s.Dur, Pid: 0, Tid: s.CPU})
		}
		for _, u := range utilRows(c.st.Samples, c.st.Epoch) {
			var avg, max float64
			for _, b := range u.ModuleBusy {
				avg += b
				if b > max {
					max = b
				}
			}
			if len(u.ModuleBusy) > 0 {
				avg /= float64(len(u.ModuleBusy))
			}
			mshr := 0
			for _, n := range u.CacheMSHR {
				mshr += n
			}
			add(chromeEvent{Name: "module-util", Ph: "C", Ts: u.Cycle, Pid: 1,
				Args: map[string]interface{}{"avg": avg, "max": max}})
			add(chromeEvent{Name: "net-flits/cycle", Ph: "C", Ts: u.Cycle, Pid: 1,
				Args: map[string]interface{}{"req": u.ReqFlits, "resp": u.RespFlits}})
			add(chromeEvent{Name: "mshr-occupancy", Ph: "C", Ts: u.Cycle, Pid: 1,
				Args: map[string]interface{}{"total": mshr}})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}
