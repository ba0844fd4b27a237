package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest percentile from the candidate list that
// leaves at least minBeyond samples above it in a sample of n, or 0 when
// none does. Candidates are percentages in descending order.
func tailPercentile(n, minBeyond int, candidates []float64) float64 {
	for _, p := range candidates {
		// a small slack absorbs the rounding of 100-p (100-99.9 is not
		// exactly 0.1)
		if float64(n)*(100-p)/100 >= float64(minBeyond)-1e-6 {
			return p
		}
	}
	return 0
}

// tailLatency is the workload's fixed tail percentile of lat. The
// percentile is fixed per workload so runs compare like with like; a run
// whose sample leaves fewer than ten samples beyond it is an error (the
// run was too short for the tail it reports).
func tailLatency(lat []float64, pct float64) (float64, error) {
	if got := tailPercentile(len(lat), 10, []float64{pct}); got == 0 {
		return 0, fmt.Errorf("%d latency samples leave fewer than 10 beyond p%g", len(lat), pct)
	}
	return quantile(lat, pct/100), nil
}

// failShare is the share of failed operations among ops whose number a
// workload fixes (the open-loop schedule and the fit probes, or the
// Table-2 cells), smoothed with the Jeffreys prior, (failed + 1/2) /
// (ops + 1). The count does not depend on how fast the system is, so a
// clean run reads the same small positive share on any machine instead
// of an exact zero, and only a failure moves it.
func failShare(failed, ops int) float64 {
	return (float64(failed) + 0.5) / (float64(ops) + 1)
}
