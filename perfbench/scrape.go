package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition into series → value,
// keyed by the series exactly as printed (name plus any label set).
// Comment lines and histogram buckets are skipped; _sum and _count are
// kept.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		series := line[:i]
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// scrape is a before/after pair of expositions from one process.
type scrape struct{ before, after map[string]float64 }

// delta returns how much a series grew across the timed phase (0 when
// the series is absent, as on a process that never did that work).
func (s scrape) delta(series string) float64 {
	if s.after == nil {
		return 0
	}
	return s.after[series] - s.before[series]
}

// meanMs returns the mean observation of a seconds histogram across the
// phase, in milliseconds (0 with no observations). labels selects one
// series of a labelled family, as printed: `{op="append"}`.
func (s scrape) meanMs(hist, labels string) float64 {
	n := s.delta(hist + "_count" + labels)
	if n == 0 {
		return 0
	}
	return s.delta(hist+"_sum"+labels) / n * 1e3
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
