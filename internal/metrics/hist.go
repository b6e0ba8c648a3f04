package metrics

import "math/bits"

// Hist is a log2-bucketed latency histogram. Bucket 0 holds the value
// 0; bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1]. The zero
// value is ready to use. It is plain data: a snapshot carries it
// verbatim (N and Total are named apart from the Count and Sum methods).
type Hist struct {
	Counts [65]uint64
	N      uint64 // observations
	Total  uint64 // sum of all observations
	Min    uint64
	Max    uint64
}

// bucketOf returns the bucket index for a value: 0 for 0, otherwise
// one more than the position of the highest set bit.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketLo returns the smallest value bucket i can hold.
func BucketLo(i int) uint64 {
	if i <= 1 {
		return uint64(i)
	}
	return 1 << uint(i-1)
}

// BucketHi returns the largest value bucket i can hold (inclusive).
func BucketHi(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Add records one observation.
func (h *Hist) Add(v uint64) {
	h.Counts[bucketOf(v)]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Total += v
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.N }

// Sum returns the total of all observations.
func (h *Hist) Sum() uint64 { return h.Total }

// Mean returns the average observation, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Total) / float64(h.N)
}

// Bucket is one populated histogram bucket; Hi is inclusive.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistReport is the exportable summary of a Hist.
type HistReport struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Report summarizes the histogram, emitting only populated buckets.
func (h *Hist) Report() HistReport {
	r := HistReport{Count: h.N, Sum: h.Total, Min: h.Min, Max: h.Max, Mean: h.Mean()}
	for i, n := range h.Counts {
		if n != 0 {
			r.Buckets = append(r.Buckets, Bucket{Lo: BucketLo(i), Hi: BucketHi(i), Count: n})
		}
	}
	return r
}
