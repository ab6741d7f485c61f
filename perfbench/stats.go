package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no quantile and yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky requests.
const minBeyond = 10

// candidatePercentiles are the tail percentiles considered, highest first.
var candidatePercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// samplesBeyond counts the samples of an n-sample set that lie strictly
// above its p-th percentile. The epsilon absorbs decimal percentiles'
// binary rounding (100-99.9 is a hair under 0.1).
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPercentile is the percentile-selection rule: the highest candidate
// percentile with at least minBeyond samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range candidatePercentiles {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and is at most 64 characters of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics, rejecting malformed names, duplicates
// and non-finite values so a bad measurement cannot reach the report.
type metricSet map[string]metric

func (ms metricSet) add(name, unit string, v float64) error {
	if !validMetricName(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", name)
	}
	if _, dup := ms[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %q is %v", name, v)
	}
	ms[name] = metric{Value: v, Unit: unit}
	return nil
}

// collector adds metrics to a set, keeping the first error so a run of
// adds can be checked once.
type collector struct {
	ms  metricSet
	err error
}

func (c *collector) add(name, unit string, v float64) {
	if err := c.ms.add(name, unit, v); err != nil && c.err == nil {
		c.err = err
	}
}
