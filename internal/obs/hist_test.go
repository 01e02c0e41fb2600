package obs

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refQuantile mirrors Quantile's rank semantics against a full sort: the
// target-th smallest sample where target = floor(q·n), clamped to >= 1.
func refQuantile(samples []int64, q float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	target := int64(q * float64(len(sorted)))
	if target < 1 {
		target = 1
	}
	return sorted[target-1]
}

// midpointOf returns the histogram's representative value for a sample: the
// geometric midpoint of its power-of-two bucket.
func midpointOf(ns int64) float64 {
	b := bits.Len64(uint64(ns))
	if b == 0 {
		return 0
	}
	return 1.5 * float64(int64(1)<<uint(b-1))
}

// TestQuantileAgainstReferenceSort pins the quantile estimator against a
// reference sort on known samples: the estimate must be exactly the bucket
// midpoint of the true order statistic, and hence within a factor of
// sqrt(2)·1.06 of it.
func TestQuantileAgainstReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]int64{
		"single":    {12345},
		"all-equal": {900, 900, 900, 900, 900},
		"zeros":     {0, 0, 0, 1, 2},
		"spread":    {3, 70, 70, 800, 9_000, 9_100, 120_000, 1_500_000, 1_500_001, 80_000_000},
	}
	uniform := make([]int64, 10_000)
	for i := range uniform {
		uniform[i] = rng.Int63n(5_000_000)
	}
	cases["uniform"] = uniform
	heavy := make([]int64, 5_000)
	for i := range heavy {
		heavy[i] = int64(100 * (1 << uint(rng.Intn(20))))
	}
	cases["pow2-heavy"] = heavy

	for name, samples := range cases {
		var h Hist
		for _, s := range samples {
			h.RecordNs(s)
		}
		var sum [HistBuckets]int64
		total := h.AddTo(&sum)
		if total != int64(len(samples)) {
			t.Fatalf("%s: total = %d, want %d", name, total, len(samples))
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
			ref := refQuantile(samples, q)
			got := Quantile(sum, total, q)
			want := midpointOf(ref)
			if got != want {
				t.Errorf("%s q=%v: estimate %v, want bucket midpoint %v of reference %d",
					name, q, got, want, ref)
			}
			if ref > 0 {
				ratio := got / float64(ref)
				if ratio <= 0.75 || ratio > 1.5 {
					t.Errorf("%s q=%v: estimate %v off reference %d by ratio %v (want (0.75, 1.5])",
						name, q, got, ref, ratio)
				}
			}
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	var sum [HistBuckets]int64
	if got := Quantile(sum, 0, 0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Hist
	h.Record(40 * time.Hour) // beyond 2^46 ns
	var sum [HistBuckets]int64
	h.AddTo(&sum)
	if sum[HistBuckets-1] != 1 {
		t.Fatalf("overflow observation not in last bucket: %v", sum)
	}
}

func TestSummarizeRoundTrip(t *testing.T) {
	var h Hist
	for _, ns := range []int64{0, 5, 5, 900, 70_000, 70_001, 3_000_000} {
		h.RecordNs(ns)
	}
	var sum [HistBuckets]int64
	h.AddTo(&sum)
	s := Summarize(sum)
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if got := s.Bucketized(); got != sum {
		t.Fatalf("Bucketized round trip mismatch:\n got %v\nwant %v", got, sum)
	}
}
