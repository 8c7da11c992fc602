package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	bp "barrierpoint"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/service"
	"barrierpoint/internal/signature"
)

// truthData is the in-process ground truth of one recluster trace: its
// region profiles (for re-deriving selections) and its full detailed
// simulation (for the perfect-warmup error of a selection).
type truthData struct {
	profiles []*signature.RegionData
	full     []bp.RegionResult
	actual   bp.Estimate
}

// reclusterSamples is how many served selections are re-derived
// in-process per run.
const reclusterSamples = 8

func (w *recluster) check(b *bench, reqs []request) error {
	w.truth = w.truth[:0]
	for _, copies := range w.traces {
		prog := copies[0].in.program()
		full, err := bp.SimulateFull(prog, bp.TableIMachine(threads/8))
		if err != nil {
			return err
		}
		w.truth = append(w.truth, truthData{profiles: profile.Program(prog), full: full, actual: bp.ActualFrom(full)})
	}
	// runtime_error_pct on recluster is the perfect-warmup error of each
	// served selection: its barrierpoints' ground-truth results scaled
	// by their multipliers, against the full simulation. It isolates the
	// selection's accuracy, which is what a re-cluster changes.
	for i := range reqs {
		r := &reqs[i]
		if r.outcome != outcomeOK {
			continue
		}
		t := w.truth[r.cfg.Trace]
		sel, err := bp.LoadSelection(bytes.NewReader(r.output))
		if err != nil {
			return err
		}
		a, err := sel.Bind(r.in.program())
		if err != nil {
			return err
		}
		e, err := a.EstimateFrom(a.PerfectWarmup(t.full))
		if err != nil {
			return err
		}
		r.errPct = math.Abs(e.TimeNs-t.actual.TimeNs) / t.actual.TimeNs * 100
	}
	pick := newRNG(b.opts.seed, 400)
	for n := 0; n < reclusterSamples && len(reqs) > 0; n++ {
		r := reqs[pick.intn(len(reqs))]
		if r.outcome != outcomeOK {
			continue
		}
		if err := w.rederive(r); err != nil {
			b.incorrect = append(b.incorrect, err.Error())
		}
	}
	return nil
}

// rederive recomputes a served selection with the library in-process and
// compares the two byte for byte.
func (w *recluster) rederive(r request) error {
	cfg, err := service.ConfigFor(r.cfg.Signature, r.cfg.MaxK)
	if err != nil {
		return err
	}
	t := w.truth[r.cfg.Trace]
	a, err := bp.AnalyzeWithProfiles(r.in.program(), cfg, t.profiles)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return err
	}
	want, err := compact(buf.Bytes())
	if err != nil {
		return err
	}
	if !bytes.Equal(r.output, want) {
		return fmt.Errorf("%s %+v: served selection differs from an in-process analysis", r.in, r.cfg)
	}
	return nil
}

// ledgerEntry is what a run records for its (workload, seed) so a later
// run with the same seed, against the same bpserve binary, can check it
// produced the same outputs.
type ledgerEntry struct {
	Outputs []string `json:"outputs"` // SHA-256 of each request's output, by index
	Points  []int    `json:"points"`
	Rounds  []int    `json:"rounds"`
	// ErrPct is runtime_error_pct over the first minRequests requests,
	// compared as exact float64 bits.
	ErrPct uint64 `json:"err_pct_bits"`
}

// ledger compares this run's outputs with an earlier run of the same
// seed and binary, marking every mismatching request incorrect, then
// records the longer of the two.
func (b *bench) ledger(w workload, reqs []request) error {
	bin, err := fileHash(filepath.Join(b.opts.bin, "bpserve"))
	if err != nil {
		return err
	}
	dir := filepath.Join(b.opts.work, "ledger", bin[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name(), b.opts.seed))

	var cur ledgerEntry
	var errs []float64
	for _, r := range reqs {
		if r.outcome != outcomeOK {
			break // a failed run records only its clean prefix
		}
		sum := sha256.Sum256(r.output)
		cur.Outputs = append(cur.Outputs, hex.EncodeToString(sum[:]))
		cur.Points = append(cur.Points, r.points)
		cur.Rounds = append(cur.Rounds, r.rounds)
		if len(errs) < w.minRequests() {
			errs = append(errs, r.errPct)
		}
	}
	complete := len(errs) == w.minRequests()
	cur.ErrPct = math.Float64bits(mean(errs))

	if raw, err := os.ReadFile(path); err == nil {
		var prev ledgerEntry
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		n := min(len(prev.Outputs), len(cur.Outputs))
		for i := 0; i < n; i++ {
			if prev.Outputs[i] != cur.Outputs[i] || prev.Points[i] != cur.Points[i] || prev.Rounds[i] != cur.Rounds[i] {
				reqs[i].wrong("request %d output differs from an earlier run with seed %d", i, b.opts.seed)
			}
		}
		if complete && len(prev.Outputs) >= w.minRequests() && prev.ErrPct != cur.ErrPct {
			b.incorrect = append(b.incorrect, fmt.Sprintf("runtime_error_pct %v differs from %v in an earlier run with seed %d",
				math.Float64frombits(cur.ErrPct), math.Float64frombits(prev.ErrPct), b.opts.seed))
		}
		if len(prev.Outputs) >= len(cur.Outputs) {
			return nil
		}
	}
	if !complete {
		return nil
	}
	raw, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// fileHash returns the hex SHA-256 of a file.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
