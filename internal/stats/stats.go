// Package stats provides the statistics machinery used by the simulation
// study: batch-means confidence intervals (the paper reports 90% CIs on
// response times computed by batch means) and running moments.
package stats

import "math"

// t90 holds two-sided 90% Student-t critical values (0.95 quantile) for
// df = 1..30; beyond that the normal approximation 1.645 is used.
var t90 = []float64{
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// T90 returns the two-sided 90% Student-t critical value for the given
// degrees of freedom.
func T90(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(t90) {
		return t90[df-1]
	}
	return 1.645
}

// BatchMeans accumulates per-batch observations and produces a mean with a
// 90% confidence half-width.
type BatchMeans struct {
	batches []float64
}

// Add appends one batch observation.
func (b *BatchMeans) Add(v float64) { b.batches = append(b.batches, v) }

// N returns the number of batches.
func (b *BatchMeans) N() int { return len(b.batches) }

// Mean returns the grand mean over batches (NaN if empty).
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range b.batches {
		sum += v
	}
	return sum / float64(len(b.batches))
}

// CI90 returns the grand mean and the 90% confidence half-width computed
// by the batch-means method.
func (b *BatchMeans) CI90() (mean, halfWidth float64) {
	n := len(b.batches)
	mean = b.Mean()
	if n < 2 {
		return mean, math.NaN()
	}
	ss := 0.0
	for _, v := range b.batches {
		d := v - mean
		ss += d * d
	}
	s := math.Sqrt(ss / float64(n-1))
	return mean, T90(n-1) * s / math.Sqrt(float64(n))
}

// Welford tracks running mean/variance/extremes of a stream.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the sample variance (NaN if fewer than two observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest observation (NaN if empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation (NaN if empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}
