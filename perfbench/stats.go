package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailLadder is the set of percentiles latency_tail_ms may report, highest
// first. A run reports the highest one with at least minBeyond samples
// above it, capped by the workload's own ceiling so the reported
// percentile does not change between runs that differ by a few samples.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a tail
// percentile for it to be reported.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank (99.9% of
	// 10000 is 9990) up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the Harrell–Davis estimate of the p-th percentile of xs
// (which it does not modify): the mean of all order statistics weighted by
// a Beta((n+1)q, (n+1)(1-q)) distribution, q = p/100. Unlike a single
// order statistic it moves smoothly with the data. That keeps it steady
// on a mix of programs whose latencies leave a gap at the percentile,
// where a nearest-rank value jumps between one program's slowest sample
// and the next program's fastest. An infinite sample with any weight
// makes the estimate infinite. It returns NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := regIncBeta(float64(i+1)/float64(n), a, b)
		w := cur - prev
		prev = cur
		if w <= 0 {
			continue
		}
		est += w * x
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz's method).
func regIncBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lgab - lga - lgb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// tailPercentile picks the percentile latency_tail_ms reports for n
// samples: the highest ladder entry at or below ceiling with at least
// minBeyond samples beyond its rank. ok is false when even the lowest
// entry lacks them; the lowest entry is returned anyway.
func tailPercentile(n int, ceiling float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q > ceiling {
			continue
		}
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return tailLadder[len(tailLadder)-1], false
}

// tally counts request outcomes. Every attempted request ends in exactly
// one of ok, failed (an HTTP error or a failed job), refused (the queue
// was full) or incorrect (a result that did not check out).
type tally struct {
	attempted, ok, failed, refused, incorrect int
}

// add records one outcome.
func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case outcomeOK:
		t.ok++
	case outcomeFailed:
		t.failed++
	case outcomeRefused:
		t.refused++
	case outcomeIncorrect:
		t.incorrect++
	default:
		panic(fmt.Sprintf("perfbench: unknown outcome %d", o))
	}
}

// bad is the number of requests that did not succeed.
func (t tally) bad() int { return t.failed + t.refused + t.incorrect }

// errorRate is bad ÷ attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.bad()) / float64(t.attempted)
}

// outcome classifies one request.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeRefused
	outcomeIncorrect
)

// latencies returns the latency samples of a set of requests, with every
// request that did not succeed counted as +Inf: a failure misses any
// latency limit.
func latencies(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		if r.outcome != outcomeOK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = r.latencyMs
	}
	return out
}

// sampledSpeedup is the paper's host-time claim over a run: the summed
// full-simulation job latency over the summed estimate job latency. It is
// a ratio of sums, not a mean of per-request ratios, so long programs
// weigh in proportion to the host time they cost.
func sampledSpeedup(simulateMs, estimateMs []float64) float64 {
	var s, e float64
	for _, v := range simulateMs {
		s += v
	}
	for _, v := range estimateMs {
		e += v
	}
	if e == 0 {
		return math.NaN()
	}
	return s / e
}

// throughput is requests_per_s over a closed loop's requests: the
// successful ones per second of the time the requests spent on their
// request path, times the number of clients. Off-path work (trace
// generation, ground truth) is left out, and while every client is busy
// the summed path time is clients × the wall-clock time.
func throughput(reqs []request, clients int) float64 {
	var ok int
	var path time.Duration
	for _, r := range reqs {
		path += r.path
		if r.outcome == outcomeOK {
			ok++
		}
	}
	if path <= 0 {
		return math.NaN()
	}
	return float64(ok*clients) / path.Seconds()
}

// nameRe is the metric-name alphabet; validName additionally requires a
// leading letter or digit and at most 64 characters.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// validName reports whether s may name a metric or workload.
func validName(s string) bool { return len(s) <= 64 && nameRe.MatchString(s) }

// median returns the median of xs (mean of the middle two for even n), or
// NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
