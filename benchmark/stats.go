package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of outliers.
const minBeyond = 10

// percentileCandidates are the percentiles the rule chooses among, highest
// first.
var percentileCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// highestPercentile applies the percentile rule to a sample of n: the
// highest candidate percentile with at least minBeyond samples beyond it.
// ok is false when even the median has fewer.
func highestPercentile(n int) (q float64, ok bool) {
	for _, q := range percentileCandidates {
		if n > 0 && beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the tail figure of a timing capped at p90: p90 when the
// percentile rule allows it (n ≥ 100), else the highest percentile the rule
// allows below it, else the median. q names the percentile reported.
func tail(xs []float64) (v, q float64) {
	q = 0.5
	if hq, ok := highestPercentile(len(xs)); ok {
		q = math.Min(hq, 0.9)
	}
	return quantile(xs, q), q
}

// describe renders a timing's sample count, median and rule-chosen tail.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4g", len(xs), median(xs))
	if q, ok := highestPercentile(len(xs)); ok && q > 0.5 {
		s += fmt.Sprintf(" p%g=%.4g (%d beyond)", q*100, quantile(xs, q), beyond(len(xs), q))
	}
	return s
}

// ledger counts attempts and failures per operation kind. The store's
// compaction goroutine records into it too, so every access holds mu.
type ledger struct {
	mu    sync.Mutex
	kinds []string
	att   map[string]int
	fail  map[string]int
	first map[string]string // first failure message per kind
}

func newLedger() *ledger {
	return &ledger{att: map[string]int{}, fail: map[string]int{}, first: map[string]string{}}
}

// record counts one attempt of kind and, when err is non-nil, one failure.
func (l *ledger) record(kind string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.att[kind]; !ok {
		l.kinds = append(l.kinds, kind)
	}
	l.att[kind]++
	if err != nil {
		l.fail[kind]++
		if _, ok := l.first[kind]; !ok {
			l.first[kind] = err.Error()
		}
	}
}

func (l *ledger) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range l.kinds {
		attempted += l.att[k]
		failed += l.fail[k]
	}
	return attempted, failed
}
