package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential histogram buckets. Bucket i
// holds values whose bit length is i, i.e. the range [2^(i-1), 2^i).
// With microsecond observations, 40 buckets span sub-microsecond to
// ~6.4 days, which covers everything from a single trial to a
// multi-day campaign.
const histBuckets = 40

// Histogram is a lock-free histogram over non-negative int64 values
// with exponential (power-of-two) buckets, plus exact count, sum, min
// and max. Use one value unit per histogram and encode it in the metric
// name ("fi.trial_us" observes microseconds).
//
// Observe is wait-free apart from min/max compare-and-swap loops and
// performs no allocation, so it is safe to call from every campaign
// worker. Construct histograms through Registry.Histogram.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex maps a value to its bucket: the value's bit length,
// clamped to the last bucket. Zero lands in bucket 0.
func bucketIndex(v int64) int {
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i ("le" in
// the snapshot): 2^i - 1, saturating at MaxInt64 for the final bucket.
func bucketUpper(i int) int64 {
	if i >= 63 || i == histBuckets-1 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// Observe records one value. Negative values are clamped to zero (they
// only arise from clock anomalies when timing with a non-monotonic
// source).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in microseconds — the convention
// for every *_us histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Since records the time elapsed from start, in microseconds.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// HistogramBucket is one non-empty bucket of a histogram snapshot: N
// observations with value ≤ Le (and greater than the previous bucket's
// Le).
type HistogramBucket struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// HistogramSnapshot is a point-in-time distribution summary. Only
// non-empty buckets are exported.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the histogram. With observations racing the
// capture the per-field values may lag each other by a few
// observations; they are exact once recording has stopped.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketUpper(i), N: n})
		}
	}
	return s
}
