package main

import (
	"math"
	"testing"
	"time"
)

func TestRegIncBeta(t *testing.T) {
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},
		{0.5, 2, 2, 0.5},
		{0.2, 3, 1, 0.008},           // x^a
		{0.2, 1, 3, 1 - 0.8*0.8*0.8}, // 1-(1-x)^b
		{0.4, 2, 3, 0.5248},          // 6x²/2 - 8x³/3·... closed form
		{0, 2, 3, 0}, {1, 2, 3, 1},
	} {
		if got := regIncBeta(c.x, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestQuantileHarrellDavis(t *testing.T) {
	// Symmetric samples: the median estimate is the centre.
	xs := []float64{9, 1, 5, 3, 7}
	if got := quantile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Errorf("quantile(%v, 50) = %v, want 5", xs, got)
	}
	if xs[0] != 9 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	// Weights sum to one: a constant sample is its own quantile.
	if got := quantile([]float64{4, 4, 4, 4}, 90); math.Abs(got-4) > 1e-12 {
		t.Errorf("quantile of a constant = %v", got)
	}
	// Monotone in p, and between the extremes.
	ys := []float64{1, 2, 4, 8, 16, 32, 64}
	prev := math.Inf(-1)
	for _, p := range []float64{10, 25, 50, 75, 90} {
		q := quantile(ys, p)
		if q <= prev || q < 1 || q > 64 {
			t.Errorf("quantile(ys, %v) = %v after %v", p, q, prev)
		}
		prev = q
	}
	// A two-program mix with a gap at the median: nearest rank lands on
	// one program's slowest sample and moves with it; Harrell–Davis sits
	// in the gap and moves far less.
	mix := []float64{100, 101, 102, 103, 200, 201, 202, 203}
	moved := append([]float64(nil), mix...)
	moved[3] = 130
	if hd := math.Abs(quantile(moved, 50) - quantile(mix, 50)); hd > 27.0/3 {
		t.Errorf("one sample moved 27 and so did the nearest-rank median; Harrell–Davis moved %v", hd)
	}
	if !math.IsInf(quantile([]float64{1, 2, math.Inf(1)}, 50), 1) {
		t.Error("a failed request does not make the estimate infinite")
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		ceiling float64
		want    float64
		ok      bool
	}{
		{1000, 99, 99, true}, // rank 990: 10 beyond
		{999, 99, 95, true},  // p99 has rank 990: 9 beyond
		{10000, 99.9, 99.9, true},
		{10000, 99, 99, true}, // capped by the workload's ceiling
		{100, 99, 90, true},   // rank 90: 10 beyond
		{99, 99, 75, true},    // p90 is rank 90: 9 beyond
		{40, 99, 75, true},    // rank 30: 10 beyond
		{39, 99, 50, true},
		{20, 99, 50, true},  // rank 10: 10 beyond
		{19, 99, 50, false}, // nothing qualifies
	} {
		p, ok := tailPercentile(c.n, c.ceiling)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.ceiling, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
}

// A run always completes minRequests requests, so its whole cycles alone
// must leave minBeyond latency samples beyond some percentile.
func TestMinRequestsKeepTenBeyond(t *testing.T) {
	for name, mk := range workloads {
		w := mk()
		n := w.minRequests() / w.cycle() * w.cycle()
		if p, ok := tailPercentile(n, w.tailCeiling()); !ok {
			t.Errorf("%s: %d samples in whole cycles leave fewer than %d beyond p%v", name, n, minBeyond, p)
		}
	}
}

func TestErrorRateCountsEveryNonSuccess(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeOK, outcomeRefused, outcomeIncorrect, outcomeFailed, outcomeOK, outcomeOK, outcomeOK} {
		tl.add(o)
	}
	if tl.attempted != 8 || tl.bad() != 3 {
		t.Fatalf("attempted %d, bad %d; want 8, 3", tl.attempted, tl.bad())
	}
	if got := tl.errorRate(); got != 3.0/8 {
		t.Errorf("errorRate = %v, want %v", got, 3.0/8)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("errorRate of nothing attempted is not 0")
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	reqs := []request{
		{outcome: outcomeOK, latencyMs: 10},
		{outcome: outcomeRefused, latencyMs: 1},
		{outcome: outcomeIncorrect, latencyMs: 2},
		{outcome: outcomeOK, latencyMs: 30},
	}
	lat := latencies(reqs)
	if lat[0] != 10 || lat[3] != 30 || !math.IsInf(lat[1], 1) || !math.IsInf(lat[2], 1) {
		t.Fatalf("latencies = %v", lat)
	}
	if got := quantile(lat, 50); !math.IsInf(got, 1) {
		t.Errorf("median with half the requests failed = %v, want +Inf", got)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"latency_p50_ms", "tracefile.digest_ms", "cold-estimate", "9lives", "a"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, s := range []string{"", "_lead", ".lead", "-lead", "has space", "per/sec", "µs", "a{b}", long} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestSampledSpeedupIsRatioOfSums(t *testing.T) {
	// One long program simulated 10x faster by sampling and one short
	// program sampled 2x slower: a mean of per-request ratios would say
	// 5.25x, the host-time claim is Σ/Σ = 1010/102.
	sim := []float64{1000, 10}
	est := []float64{100, 2}
	if got, want := sampledSpeedup(sim, est), 1010.0/102; got != want {
		t.Errorf("sampledSpeedup = %v, want %v", got, want)
	}
	if !math.IsNaN(sampledSpeedup([]float64{1}, []float64{0})) {
		t.Error("sampledSpeedup with no estimate time is not NaN")
	}
}

func TestThroughputCountsOnlyPathTime(t *testing.T) {
	reqs := []request{
		{outcome: outcomeOK, path: 2 * time.Second, offPath: 5 * time.Second},
		{outcome: outcomeOK, path: time.Second},
		{outcome: outcomeFailed, path: time.Second},
	}
	// Two successes over 4 s on the path; the failure's time counts, the
	// off-path time does not.
	if got := throughput(reqs, 1); got != 0.5 {
		t.Errorf("1 client: throughput = %v, want 0.5", got)
	}
	if got := throughput(reqs, 2); got != 1 {
		t.Errorf("2 clients: throughput = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"root": 100 - 40 - 10, "a": 25, "b": 20, "c": 30, "d": 5} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
	}
}

func TestReclusterConfigsNeverRepeat(t *testing.T) {
	seen := map[reclusterCfg]bool{}
	pairs := len(reclusterPrograms) * len(reclusterSignatures)
	n := pairs * reclusterBlocks
	for i := 0; i < n; i++ {
		c, ok := reclusterConfig(7, i)
		if !ok {
			t.Fatalf("request %d: schedule exhausted early", i)
		}
		if seen[c] {
			t.Fatalf("request %d repeats %+v", i, c)
		}
		if c.Copy == 0 && c.Signature == "combine" && c.MaxK == 20 {
			t.Fatalf("request %d is set-up's default analysis", i)
		}
		if c.MaxK < 2 || c.MaxK > 15 || c.Copy < 0 || c.Copy >= reclusterCopies {
			t.Fatalf("request %d: %+v out of range", i, c)
		}
		seen[c] = true
	}
	if _, ok := reclusterConfig(7, n); ok {
		t.Error("schedule continues past its distinct configurations")
	}
	// Every block covers each (trace, signature) pair once, gives each
	// trace one max_k from every stratum, and holds the same
	// configurations under any seed.
	for b := 0; b < reclusterBlocks; b++ {
		pairsSeen := map[[2]any]bool{}
		strata := map[int]map[int]bool{}
		a, z := map[reclusterCfg]bool{}, map[reclusterCfg]bool{}
		for s := 0; s < pairs; s++ {
			c, _ := reclusterConfig(7, b*pairs+s)
			pairsSeen[[2]any{c.Trace, c.Signature}] = true
			if strata[c.Trace] == nil {
				strata[c.Trace] = map[int]bool{}
			}
			for si, st := range kStrata {
				for _, k := range st {
					if k == c.MaxK {
						strata[c.Trace][si] = true
					}
				}
			}
			a[c] = true
			c2, _ := reclusterConfig(8, b*pairs+s)
			z[c2] = true
		}
		if len(pairsSeen) != pairs {
			t.Errorf("block %d covers %d of %d pairs", b, len(pairsSeen), pairs)
		}
		for tr, st := range strata {
			if len(st) != len(kStrata) {
				t.Errorf("block %d gives trace %d max_k from %d strata", b, tr, len(st))
			}
		}
		for c := range a {
			if !z[c] {
				t.Errorf("block %d differs between seeds: %+v", b, c)
			}
		}
	}
}

func TestInputsAreSeededAndDistinct(t *testing.T) {
	w := &coldEstimate{}
	if w.input(3, 5) != w.input(3, 5) {
		t.Error("same seed and index give different inputs")
	}
	if w.input(3, 5) == w.input(4, 5) {
		t.Error("different seeds give the same input")
	}
	salts := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		in := w.input(11, i)
		if salts[in.Salt] || in.Salt == 0 {
			t.Fatalf("input %d reuses salt %d", i, in.Salt)
		}
		salts[in.Salt] = true
	}
}
