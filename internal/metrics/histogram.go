package metrics

import (
	"math"
	"math/bits"
)

// The log2 latency histogram shared by the registry's histogram families
// and the flight recorder's per-span latencies, so both digest and export
// identically.

// NumBuckets is the fixed log2 bucket count. Bucket i holds durations d
// with bits.Len64(d) == i: bucket 0 is exactly {0}, bucket i (i >= 1) is
// [2^(i-1), 2^i). The last bucket absorbs everything longer (2^38 cycles
// ≈ 130 simulated seconds — far beyond any single span).
const NumBuckets = 40

// Histogram is a fixed-log2-bucket latency histogram in virtual cycles.
//
// Exemplars: each bucket optionally retains the identity (a span/session
// ID) of the most recent observation that landed in it. Last-write-wins is
// the deterministic tail-replacement rule: for a fixed observation order —
// which the virtual clock guarantees — the retained exemplar per bucket is
// fixed, so an exemplar in a p99 bucket links a blown SLO to one concrete
// session's span tree.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
	Exem    [NumBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d uint64) int {
	i := bits.Len64(d)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper is the inclusive upper bound of bucket i in cycles
// (math.MaxUint64 for the overflow bucket).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe adds one duration.
func (h *Histogram) Observe(d uint64) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// ObserveEx adds one duration and retains exemplar (a span/session ID; 0
// keeps the bucket's previous exemplar) in the duration's bucket.
func (h *Histogram) ObserveEx(d uint64, exemplar uint64) {
	h.Observe(d)
	if exemplar != 0 {
		h.Exem[bucketOf(d)] = exemplar
	}
}

// ExemplarAt returns the exemplar retained in the bucket where quantile q
// falls (the same bucket walk as Quantile), or 0 when that bucket holds
// none. An empty histogram returns 0.
func (h Histogram) ExemplarAt(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(1)
	if q >= 1 {
		rank = h.Count
	} else if q > 0 {
		rank = uint64(math.Ceil(q * float64(h.Count)))
		if rank == 0 {
			rank = 1
		}
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			return h.Exem[i]
		}
	}
	return 0
}

// CountAbove counts observations whose bucket's effective upper bound
// (clamped to the observed Max) exceeds threshold — the bucket-granular
// violation count the SLO engine charges against an error budget. The rule
// matches Quantile: Quantile(q) <= t implies at most (1-q)·Count
// observations are counted above t.
func (h Histogram) CountAbove(threshold uint64) uint64 {
	var out uint64
	for i := 0; i < NumBuckets; i++ {
		if h.Buckets[i] == 0 {
			continue
		}
		up := BucketUpper(i)
		if up > h.Max {
			up = h.Max
		}
		if up > threshold {
			out += h.Buckets[i]
		}
	}
	return out
}

// Mean is the average observed duration in cycles.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound (in cycles) for the q-quantile: the
// inclusive upper edge of the bucket where that quantile falls, clamped to
// the observed Max. Edge cases are fixed deterministically: an empty
// histogram returns 0 regardless of q, q <= 0 returns Min, and q >= 1
// returns exactly Max (the tightest upper bound for the last observation —
// never the log2 bucket edge above it).
func (h Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			up := BucketUpper(i)
			if up > h.Max {
				up = h.Max
			}
			return up
		}
	}
	return h.Max
}
