package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value such that at least p% of the samples are at
// or below it. It returns 0 for an empty sample and leaves vals
// untouched.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(vals []float64) float64 { return percentile(vals, 50) }

// now reads the wall clock, the one place this module does. rsulint's
// detrand analyzer bars wall-clock reads from deterministic code and its
// default allowlist exempts the CLI entry points under repro/cmd; this
// benchmark is such an entry point in its own directory, and timing is
// its purpose. No input or seed is derived from the clock.
//
//lint:ignore rsulint/detrand the benchmark measures elapsed wall time
func now() time.Time { return time.Now() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// medianDuration times fn reps times and returns the median duration.
func medianDuration(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}
