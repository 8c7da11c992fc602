// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section. Each benchmark regenerates its experiment on
// a reduced-scale workload suite (region counts and phase structure
// unchanged; iteration counts scaled), reporting wall time per full
// regeneration. Run the paper-shaped version with:
//
//	go run ./cmd/bpexp -all
package barrierpoint_test

import (
	"path/filepath"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/experiments"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/workload"
)

// benchScale keeps `go test -bench=.` to a few minutes for the whole file.
const benchScale = 0.2

// benchSubset is used for the heaviest sweeps.
var benchSubset = []string{"npb-ft", "npb-is", "npb-lu"}

func newBenchHarness(subset bool) *experiments.Harness {
	h := experiments.New(benchScale)
	if subset {
		h.Benches = benchSubset
	}
	return h
}

func BenchmarkTable1(b *testing.B) {
	h := newBenchHarness(true)
	for i := 0; i < b.N; i++ {
		_ = h.Table1().String()
	}
}

func BenchmarkTable2(b *testing.B) {
	h := newBenchHarness(true)
	for i := 0; i < b.N; i++ {
		_ = h.Table2().String()
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(false)
		_ = h.Fig1().String()
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig3()
		_ = tbl.String()
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig4()
		_ = tbl.String()
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Fig5().String()
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Fig6().String()
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig7()
		_ = tbl.String()
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig8()
		_ = tbl.String()
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig9()
		_ = tbl.String()
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Table3().String()
	}
}

// Component-level benchmarks: the costs behind the methodology.

// BenchmarkFullSimulation measures the detailed simulation BarrierPoint
// replaces (the denominator of the Fig. 9 speedups).
func BenchmarkFullSimulation(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	mc := bp.TableIMachine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.SimulateFull(prog, mc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiling measures the one-time instrumentation pass (the
// paper's 20-30x-slowdown Pintool stand-in).
func BenchmarkProfiling(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Analyze(prog, bp.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedProfile is BenchmarkProfiling with the telemetry
// observer live: every stage lands in a span and a latency histogram,
// exactly as a bpserve job records it. Its delta against
// BenchmarkProfiling bounds the instrumentation overhead.
func BenchmarkInstrumentedProfile(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	reg := obs.NewRegistry()
	stageDur := reg.HistogramVec("bench_stage_seconds", "per-stage latency", "stage", obs.DefLatencyBuckets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := obs.NewSpan(obs.NewTraceID(), "bench")
		obsrv := func(stage string, d time.Duration) {
			span.Observe(stage, d)
			stageDur.With(stage).ObserveDuration(d)
		}
		if _, err := bp.AnalyzeObserved(prog, bp.DefaultConfig(), obsrv); err != nil {
			b.Fatal(err)
		}
		span.Finish()
	}
}

// newBenchStore files a recorded npb-ft trace in a fresh content-addressed
// store, returning the store and the trace's key.
func newBenchStore(b *testing.B) (*store.Store, string) {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "ft.bptrace")
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	if err := bp.SaveTrace(path, prog); err != nil {
		b.Fatal(err)
	}
	key, _, err := st.ImportTrace(path)
	if err != nil {
		b.Fatal(err)
	}
	return st, key
}

// BenchmarkAnalyzeColdStore measures analyze throughput through the store
// with the selection artifact AND every cached region profile invalidated
// each iteration: the full profile+cluster cost plus artifact writes.
// Compare to BenchmarkAnalyzeCachedStore for the artifact cache's speedup
// and to BenchmarkRecluster for the profile cache's.
func BenchmarkAnalyzeColdStore(b *testing.B) {
	st, key := newBenchStore(b)
	cfg := bp.DefaultConfig()
	name := service.SelectionArtifact(cfg)
	f, err := st.OpenTrace(key)
	if err != nil {
		b.Fatal(err)
	}
	digests := make([]string, f.Regions())
	distinct := make(map[string]bool)
	for i := range digests {
		if digests[i], err = f.RegionDigest(i); err != nil {
			b.Fatal(err)
		}
		distinct[digests[i]] = true
	}
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RemoveArtifact(key, name); err != nil {
			b.Fatal(err)
		}
		for _, d := range digests {
			if err := st.RemoveProfile(d, signature.CodecVersion); err != nil {
				b.Fatal(err)
			}
		}
		_, cached, stats, err := service.AnalyzeCached(st, key, cfg, nil)
		if err != nil || cached {
			b.Fatalf("cold analyze: cached=%v err=%v", cached, err)
		}
		// Repeated region content dedups within the run; every distinct
		// region must still have been profiled fresh.
		if stats.Computed != len(distinct) {
			b.Fatalf("cold analyze computed %d profiles, want %d distinct", stats.Computed, len(distinct))
		}
	}
}

// BenchmarkAnalyzeCachedStore measures the repeat-request path: every
// iteration is a store hit that returns the selection without opening the
// trace or profiling.
func BenchmarkAnalyzeCachedStore(b *testing.B) {
	st, key := newBenchStore(b)
	cfg := bp.DefaultConfig()
	if _, _, _, err := service.AnalyzeCached(st, key, cfg, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, _, err := service.AnalyzeCached(st, key, cfg, nil); err != nil || !cached {
			b.Fatalf("cached analyze: cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkRecluster measures re-clustering over a warm profile cache:
// the per-region profiles are content-addressed, so after one analysis
// (or a streaming upload) a request with a different clustering config —
// here MaxK — reuses every cached profile and pays only k-means plus the
// artifact write. The gap to BenchmarkAnalyzeColdStore is the profiling
// cost the cache removes.
func BenchmarkRecluster(b *testing.B) {
	st, key := newBenchStore(b)
	// One cold analysis fills the content-addressed profile cache.
	if _, cached, _, err := service.AnalyzeCached(st, key, bp.DefaultConfig(), nil); err != nil || cached {
		b.Fatalf("warm-up analyze: cached=%v err=%v", cached, err)
	}
	cfg, err := service.ConfigFor("", 7)
	if err != nil {
		b.Fatal(err)
	}
	name := service.SelectionArtifact(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RemoveArtifact(key, name); err != nil {
			b.Fatal(err)
		}
		_, cached, stats, err := service.AnalyzeCached(st, key, cfg, nil)
		if err != nil || cached {
			b.Fatalf("recluster: cached=%v err=%v", cached, err)
		}
		if stats.Computed != 0 || stats.Cached != stats.Regions {
			b.Fatalf("recluster profiled %d/%d regions fresh, want all %d from cache",
				stats.Computed, stats.Regions, stats.Regions)
		}
	}
}

// BenchmarkBarrierPointSimulation measures the sampled path: barrierpoints
// only, MRU-warmed, in parallel.
func BenchmarkBarrierPointSimulation(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	mc := bp.TableIMachine(1)
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SimulatePoints(mc, bp.MRUWarmup); err != nil {
			b.Fatal(err)
		}
	}
}
