package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer samples is mostly noise.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match ones computed from the printed values.
// With fewer than two samples both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of xs and
// whether it may be reported: only when at least minBeyond samples rank
// above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n)))
	if n == 0 || k < 1 || n-k < minBeyond {
		return 0, false
	}
	return sorted(xs)[k-1], true
}

// histQuantile estimates the p-th quantile of a cumulative fixed-bucket
// histogram (upper bounds with cumulative counts, +Inf last) by linear
// interpolation inside the bucket holding the nearest rank — the
// Prometheus histogram_quantile rule. Like percentile, it reports only
// when at least minBeyond observations rank above the quantile.
func histQuantile(upper []float64, cum []uint64, p float64) (float64, bool) {
	if len(cum) == 0 || len(cum) != len(upper)+1 {
		return 0, false
	}
	n := cum[len(cum)-1]
	k := uint64(math.Ceil(p * float64(n)))
	if n == 0 || k < 1 || n-k < minBeyond {
		return 0, false
	}
	lo, below := 0.0, uint64(0)
	for i, up := range upper {
		if cum[i] >= k {
			in := cum[i] - below
			return lo + (up-lo)*float64(k-below)/float64(in), true
		}
		lo, below = up, cum[i]
	}
	// The rank falls in the +Inf bucket: the largest finite bound is the
	// best the histogram can say.
	return lo, true
}

// errMismatch marks a pass whose output differs from what was expected.
var errMismatch = errors.New("output mismatch")

// checker verifies a workload's output digest pass after pass. With a
// golden digest (the default seed at the full size) every pass must equal
// it; at any other seed every pass must equal the first one.
type checker struct {
	golden string
	first  string
}

func (c *checker) check(digest string) error {
	if c.golden != "" && digest != c.golden {
		return fmt.Errorf("%w: digest %s, golden %s", errMismatch, digest, c.golden)
	}
	if c.first == "" {
		c.first = digest
		return nil
	}
	if digest != c.first {
		return fmt.Errorf("%w: digest %s, first pass %s", errMismatch, digest, c.first)
	}
	return nil
}

// tally counts attempted and failed passes. A pass fails on any returned
// error or any output-check mismatch; a failure is counted, never
// aborted on, so error_rate stays a measurement.
type tally struct {
	attempted, failed int
	errs              []string
}

// maxKeptErrs bounds how many failure messages are kept for the report.
const maxKeptErrs = 5

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < maxKeptErrs {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
