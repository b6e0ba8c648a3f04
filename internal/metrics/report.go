package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Report is the exportable summary of one run's collected metrics.
type Report struct {
	Procs  int    `json:"procs"`
	Cycles uint64 `json:"cycles"`
	Epoch  uint64 `json:"epoch"`

	Stalls          StallReport            `json:"stalls"`
	Latency         map[string]HistReport  `json:"latency"`
	LineFill        HistReport             `json:"line_fill"`
	ModuleQueueWait HistReport             `json:"module_queue_wait"`
	NetQueueWait    map[string]HistReport  `json:"net_queue_wait"`
	Backpressure    map[string]NetPressure `json:"net_backpressure"`
	Timeline        TimelineSummary        `json:"timeline"`
	Utilization     []UtilRow              `json:"utilization,omitempty"`
}

// StallReport is the cycle-attribution breakdown. Cause order matches
// Causes; PerCPU[i][j] is processor i's cycles stalled for Causes[j].
// TotalStalled is the sum over all causes and processors and equals
// the sum of the per-processor cpu.Stats stall counters.
type StallReport struct {
	Causes       []string   `json:"causes"`
	PerCPU       [][]uint64 `json:"per_cpu"`
	Total        []uint64   `json:"total"`
	TotalStalled uint64     `json:"total_stalled"`
}

// NetPressure summarizes entrance-buffer back-pressure on one network.
type NetPressure struct {
	Retries   uint64   `json:"retries"`
	PerSource []uint64 `json:"per_source,omitempty"`
}

// TimelineSummary describes the retained stall timeline.
type TimelineSummary struct {
	Slices  int    `json:"slices"`
	Dropped uint64 `json:"dropped"`
}

// UtilRow is one epoch of the utilization time-series. Rates are
// per-cycle over the epoch that ends at Cycle; ModuleBusy entries are
// utilizations in [0,1].
type UtilRow struct {
	Cycle      uint64    `json:"cycle"`
	ModuleBusy []float64 `json:"module_busy"`
	CacheMSHR  []int     `json:"cache_mshr"`
	ReqFlits   float64   `json:"req_flits_per_cycle"`
	RespFlits  float64   `json:"resp_flits_per_cycle"`
	ReqMsgs    float64   `json:"req_msgs_per_cycle"`
	RespMsgs   float64   `json:"resp_msgs_per_cycle"`
}

// Report builds the exportable summary; cycles is the run length
// (machine.Result.Cycles). Safe on a nil collector (empty report).
func (c *Collector) Report(cycles uint64) *Report {
	r := &Report{
		Latency:      map[string]HistReport{},
		NetQueueWait: map[string]HistReport{},
		Backpressure: map[string]NetPressure{},
	}
	if c == nil {
		return r
	}
	r.Procs = len(c.st.Stalls)
	r.Cycles = cycles
	r.Epoch = c.st.Epoch

	for cause := StallCause(0); cause < NumCauses; cause++ {
		r.Stalls.Causes = append(r.Stalls.Causes, cause.String())
	}
	r.Stalls.Total = make([]uint64, NumCauses)
	for i := range c.st.Stalls {
		row := make([]uint64, NumCauses)
		for j, v := range c.st.Stalls[i] {
			row[j] = v
			r.Stalls.Total[j] += v
			r.Stalls.TotalStalled += v
		}
		r.Stalls.PerCPU = append(r.Stalls.PerCPU, row)
	}

	for class := RefClass(0); class < NumClasses; class++ {
		r.Latency[class.String()] = c.st.Refs[class].Report()
	}
	r.LineFill = c.st.Fill.Report()
	r.ModuleQueueWait = c.st.ModWait.Report()
	for n := Net(0); n < numNets; n++ {
		r.NetQueueWait[n.String()] = c.st.NetWait[n].Report()
		p := NetPressure{PerSource: c.st.NetRetries[n]}
		for _, v := range c.st.NetRetries[n] {
			p.Retries += v
		}
		r.Backpressure[n.String()] = p
	}
	r.Timeline = TimelineSummary{Slices: len(c.st.Slices), Dropped: c.st.Dropped}
	r.Utilization = utilRows(c.st.Samples, c.st.Epoch)
	return r
}

// utilRows converts cumulative samples into per-epoch rates.
func utilRows(samples []Sample, epoch uint64) []UtilRow {
	rows := make([]UtilRow, 0, len(samples))
	var prev Sample // zero value: start of run
	prevAt := uint64(0)
	for _, s := range samples {
		span := s.At - prevAt
		if span == 0 {
			span = epoch
		}
		row := UtilRow{Cycle: s.At, CacheMSHR: s.CacheMSHR}
		row.ModuleBusy = make([]float64, len(s.ModuleBusy))
		for i, busy := range s.ModuleBusy {
			var before uint64
			if i < len(prev.ModuleBusy) {
				before = prev.ModuleBusy[i]
			}
			row.ModuleBusy[i] = float64(busy-before) / float64(span)
		}
		row.ReqFlits = float64(s.NetFlits[NetReq]-prev.NetFlits[NetReq]) / float64(span)
		row.RespFlits = float64(s.NetFlits[NetResp]-prev.NetFlits[NetResp]) / float64(span)
		row.ReqMsgs = float64(s.NetMsgs[NetReq]-prev.NetMsgs[NetReq]) / float64(span)
		row.RespMsgs = float64(s.NetMsgs[NetResp]-prev.NetMsgs[NetResp]) / float64(span)
		rows = append(rows, row)
		prev, prevAt = s, s.At
	}
	return rows
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the report as CSV. Each row starts with a record
// type: "stall" (cpu, cause, cycles), "stall-total" (cause, cycles),
// "latency" (class, bucket lo, bucket hi, count), "backpressure"
// (net, source, retries), "util" (cycle, module-busy avg, req/resp
// flits per cycle).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec ...string) { cw.Write(rec) }
	write("record", "k1", "k2", "k3", "value")
	for cpu, row := range r.Stalls.PerCPU {
		for j, v := range row {
			write("stall", strconv.Itoa(cpu), r.Stalls.Causes[j], "", strconv.FormatUint(v, 10))
		}
	}
	for j, v := range r.Stalls.Total {
		write("stall-total", r.Stalls.Causes[j], "", "", strconv.FormatUint(v, 10))
	}
	for class := RefClass(0); class < NumClasses; class++ {
		h := r.Latency[class.String()]
		for _, b := range h.Buckets {
			write("latency", class.String(),
				strconv.FormatUint(b.Lo, 10), strconv.FormatUint(b.Hi, 10),
				strconv.FormatUint(b.Count, 10))
		}
	}
	for net, p := range r.Backpressure {
		for src, v := range p.PerSource {
			if v != 0 {
				write("backpressure", net, strconv.Itoa(src), "", strconv.FormatUint(v, 10))
			}
		}
	}
	for _, u := range r.Utilization {
		var avg float64
		for _, b := range u.ModuleBusy {
			avg += b
		}
		if len(u.ModuleBusy) > 0 {
			avg /= float64(len(u.ModuleBusy))
		}
		write("util", strconv.FormatUint(u.Cycle, 10),
			fmt.Sprintf("%.4f", avg),
			fmt.Sprintf("%.4f", u.ReqFlits),
			fmt.Sprintf("%.4f", u.RespFlits))
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders the stall breakdown and latency histograms as a
// human-readable table (the mcsim -hist output).
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "stall attribution (%d processors, %d cycles):\n", r.Procs, r.Cycles)
	fmt.Fprintf(w, "  %-14s %14s %8s\n", "cause", "cycles", "share")
	for j, cause := range r.Stalls.Causes {
		share := 0.0
		if r.Stalls.TotalStalled > 0 {
			share = 100 * float64(r.Stalls.Total[j]) / float64(r.Stalls.TotalStalled)
		}
		fmt.Fprintf(w, "  %-14s %14d %7.1f%%\n", cause, r.Stalls.Total[j], share)
	}
	fmt.Fprintf(w, "  %-14s %14d\n", "total", r.Stalls.TotalStalled)

	fmt.Fprintf(w, "\nshared-reference latency (cycles, issue -> completion):\n")
	for class := RefClass(0); class < NumClasses; class++ {
		h := r.Latency[class.String()]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s n=%-9d mean=%-8.1f min=%-6d max=%d\n",
			class.String(), h.Count, h.Mean, h.Min, h.Max)
		writeBuckets(w, h)
	}
	if r.LineFill.Count > 0 {
		fmt.Fprintf(w, "  %-10s n=%-9d mean=%-8.1f min=%-6d max=%d\n",
			"line-fill", r.LineFill.Count, r.LineFill.Mean, r.LineFill.Min, r.LineFill.Max)
		writeBuckets(w, r.LineFill)
	}
}

// writeBuckets prints one histogram's populated buckets with bars.
func writeBuckets(w io.Writer, h HistReport) {
	var peak uint64
	for _, b := range h.Buckets {
		if b.Count > peak {
			peak = b.Count
		}
	}
	for _, b := range h.Buckets {
		bar := 0
		if peak > 0 {
			bar = int(40 * b.Count / peak)
		}
		fmt.Fprintf(w, "    [%6d, %6d] %10d %s\n", b.Lo, b.Hi, b.Count, strings.Repeat("#", bar))
	}
}
