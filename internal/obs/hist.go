package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the bucket count of the power-of-two histograms: bucket 47
// is the overflow bucket, so the covered range tops out at 2^46 ns ≈ 19.5 h,
// far beyond any serve-path duration.
const HistBuckets = 48

// Hist is a lock-free power-of-two latency histogram.
//
// Bucket boundaries: bucket b counts durations whose nanosecond count has
// bit-length b —
//
//	bucket 0:        exactly 0 ns
//	bucket b (b>=1): d ∈ [2^(b-1), 2^b) ns
//	bucket 47:       everything >= 2^46 ns (overflow)
//
// so boundaries double: bucket 11 is ~1–2 µs, bucket 21 is ~1–2 ms, bucket
// 31 is ~1–2 s. The relative quantile error is therefore bounded by the
// bucket width: an estimate is within a factor of sqrt(2) of the true value
// when reported as the geometric midpoint (see Quantile).
//
// Writers and readers may be concurrent (all counters atomic); the serving
// stack writes each histogram from a single shard goroutine.
type Hist struct {
	buckets [HistBuckets]atomic.Int64
}

// Record adds one duration observation.
func (h *Hist) Record(d time.Duration) { h.RecordNs(d.Nanoseconds()) }

// RecordNs adds one observation in nanoseconds (negatives clamp to 0).
func (h *Hist) RecordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
}

// AddTo accumulates the histogram into sum and returns the number of
// observations added.
func (h *Hist) AddTo(sum *[HistBuckets]int64) int64 {
	var total int64
	for b := range sum {
		c := h.buckets[b].Load()
		sum[b] += c
		total += c
	}
	return total
}

// Total returns the observation count.
func (h *Hist) Total() int64 {
	var total int64
	for b := range h.buckets {
		total += h.buckets[b].Load()
	}
	return total
}

// BucketUpperNs returns bucket b's exclusive upper bound in nanoseconds
// (2^b). The overflow bucket has no finite bound; callers render it as +Inf.
func BucketUpperNs(b int) int64 {
	if b >= 63 {
		return int64(1) << 62
	}
	return int64(1) << uint(b)
}

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds from a merged
// bucket vector: the geometric midpoint 1.5·2^(b-1) of the bucket holding
// the target rank (within a factor of sqrt(2) of the true order statistic).
// Zero when nothing has been recorded.
func Quantile(sum [HistBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range sum {
		cum += c
		if cum >= target {
			if b == 0 {
				return 0
			}
			lo := float64(int64(1) << uint(b-1))
			return lo * 1.5 // midpoint of [2^(b-1), 2^b)
		}
	}
	return 0
}

// HistBucket is one non-empty histogram bucket in wire form.
type HistBucket struct {
	// Bit is the bucket index: counts durations d with bit-length(d ns) ==
	// Bit, i.e. d ∈ [2^(Bit-1), 2^Bit) ns (Bit 0: d == 0).
	Bit   int   `json:"bit"`
	Count int64 `json:"count"`
}

// HistSummary is the JSON form of a histogram: quantiles for humans plus
// the non-empty raw buckets, from which Bucketized reconstructs the exact
// bucket vector (the Prometheus rendering reads it).
type HistSummary struct {
	Count      int64        `json:"count"`
	P50Micros  float64      `json:"p50_us"`
	P99Micros  float64      `json:"p99_us"`
	P999Micros float64      `json:"p999_us"`
	Buckets    []HistBucket `json:"buckets,omitempty"`
}

// Summarize renders a merged bucket vector as a HistSummary.
func Summarize(sum [HistBuckets]int64) HistSummary {
	var total int64
	for _, c := range sum {
		total += c
	}
	s := HistSummary{
		Count:      total,
		P50Micros:  Quantile(sum, total, 0.50) / 1e3,
		P99Micros:  Quantile(sum, total, 0.99) / 1e3,
		P999Micros: Quantile(sum, total, 0.999) / 1e3,
	}
	for b, c := range sum {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Bit: b, Count: c})
		}
	}
	return s
}

// Bucketized reconstructs the raw bucket vector from the wire form.
func (s HistSummary) Bucketized() [HistBuckets]int64 {
	var sum [HistBuckets]int64
	for _, b := range s.Buckets {
		if b.Bit >= 0 && b.Bit < HistBuckets {
			sum[b.Bit] += b.Count
		}
	}
	return sum
}
