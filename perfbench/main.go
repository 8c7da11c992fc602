// Command perfbench is the end-to-end benchmark of the BarrierPoint
// service: it drives a live bpserve (plus one bpworker where a workload
// farms) built from the checkout under test, on a fresh store each run,
// from one closed-loop load generator, checks every output, and prints
// every metric BENCHMARK.json names.
//
// Usage (from the root of a checkout; run.sh builds and calls this):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics of a traced run. See
// README.md for the workloads, metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json perfbench reads: the metric
// lists it must produce, with their units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !validName(m.Name) {
				return nil, fmt.Errorf("%s: invalid metric name %q", path, m.Name)
			}
		}
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("input seed (%d is held out: use it only to confirm a claimed gain)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase, seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "directory holding the bpserve and bpworker binaries")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for stores, logs, spans and the determinism ledger")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return 2, err
	}
	w, ok := workloads[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	listed := false
	for _, sw := range spec.Workloads {
		listed = listed || sw.Name == o.workload
	}
	if !listed {
		return 2, fmt.Errorf("workload %q is not listed in BENCHMARK.json", o.workload)
	}
	for _, b := range []string{"bpserve", "bpworker"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return 2, fmt.Errorf("missing binary: %w", err)
		}
	}

	b, err := newBench(o)
	if err != nil {
		return 1, err
	}
	defer b.cleanup()
	// An interrupted run still stops its servers and deletes its stores.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			b.cleanup()
			fmt.Fprintln(os.Stderr, "perfbench: interrupted")
			os.Exit(130)
		}
	}()
	res, err := b.execute(w(), spec)
	if err != nil {
		return 1, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("outputs failed their checks (see the lines above and stderr)")
	}
	return 0, nil
}

// bench is one run: its directories, child processes and clients.
type bench struct {
	opts   options
	runDir string
	tr     *tracer // nil unless --trace 1

	srv, wrk  *proc
	store     string // bpserve's store directory
	addr      string // bpserve listen address
	wrkAddr   string // bpworker metrics address (farm workloads)
	cl        *client
	incorrect []string // correctness failures found after the timed phase
}

func newBench(o options) (*bench, error) {
	dir := filepath.Join(o.work, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: o, runDir: dir}
	if o.trace {
		b.tr = &tracer{}
	}
	return b, nil
}

// cleanup stops every child and deletes the run's stores.
func (b *bench) cleanup() {
	stopAll()
	os.RemoveAll(b.runDir)
}

// startServer starts bpserve (and, for farming workloads, one bpworker)
// on a fresh store and waits until they are ready.
func (b *bench) startServer(rep int, farm bool) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	store := filepath.Join(b.runDir, fmt.Sprintf("store-%d", rep))
	b.srv, err = startProc("bpserve", filepath.Join(b.opts.bin, "bpserve"), []string{
		"-addr", addr, "-store", store, "-workers", "2", "-drain-timeout", "10s",
	}, filepath.Join(b.runDir, fmt.Sprintf("bpserve-%d.log", rep)))
	if err != nil {
		return err
	}
	b.addr, b.store = addr, store
	b.cl = newClient(addr)
	if err := waitHTTP(b.srv, "http://"+addr+"/healthz", 20*time.Second); err != nil {
		return err
	}
	if !farm {
		return nil
	}
	if b.wrkAddr, err = freeAddr(); err != nil {
		return err
	}
	b.wrk, err = startProc("bpworker", filepath.Join(b.opts.bin, "bpworker"), []string{
		"-server", "http://" + addr, "-store", filepath.Join(b.runDir, fmt.Sprintf("worker-%d", rep)),
		"-name", "perfbench", "-concurrency", "2", "-poll", "100ms", "-metrics-addr", b.wrkAddr,
	}, filepath.Join(b.runDir, fmt.Sprintf("bpworker-%d.log", rep)))
	if err != nil {
		return err
	}
	if err := waitHTTP(b.wrk, "http://"+b.wrkAddr+"/metrics", 20*time.Second); err != nil {
		return err
	}
	// The worker registers on its first poll; wait until the server sees
	// it live, so the first farmed request does not pay registration.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Farm struct {
				Live int `json:"workers_live"`
			} `json:"farm"`
		}
		if err := b.cl.do("GET", "/healthz", nil, &h); err == nil && h.Farm.Live > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("bpworker did not register with bpserve")
}

// stopServer stops the worker, then the server.
func (b *bench) stopServer() {
	for _, p := range []*proc{b.wrk, b.srv} {
		if p != nil {
			p.stop(15 * time.Second)
		}
	}
	b.srv, b.wrk = nil, nil
}

// peakRSS returns the summed peak RSS (VmHWM) of the server and worker.
func (b *bench) peakRSS() (float64, error) {
	var sum float64
	for _, p := range []*proc{b.srv, b.wrk} {
		if p == nil {
			continue
		}
		v, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrapeAll fetches /metrics from the server and, if running, the worker.
func (b *bench) scrapeAll() (srv, wrk map[string]float64, err error) {
	if srv, err = fetchMetrics(b.cl.hc, "http://"+b.addr+"/metrics"); err != nil {
		return nil, nil, err
	}
	if b.wrk != nil {
		if wrk, err = fetchMetrics(b.cl.hc, "http://"+b.wrkAddr+"/metrics"); err != nil {
			return nil, nil, err
		}
	}
	return srv, wrk, nil
}

// execute runs one workload end to end and assembles its result.
func (b *bench) execute(w workload, spec *benchSpec) (*result, error) {
	// All but the last set-up are torn down.
	var setups []float64
	for rep := 0; rep < w.setups(); rep++ {
		t0 := time.Now()
		if err := b.startServer(rep, w.farm()); err != nil {
			return nil, err
		}
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < w.setups()-1 {
			b.stopServer()
			os.RemoveAll(filepath.Join(b.runDir, fmt.Sprintf("store-%d", rep)))
			os.RemoveAll(filepath.Join(b.runDir, fmt.Sprintf("worker-%d", rep)))
		}
	}

	var sc phaseScrape
	if err := b.scrapePhase(&sc, false); err != nil {
		return nil, err
	}
	reqs, rss, err := b.timedPhase(w)
	if err != nil {
		return nil, err
	}
	if err := b.scrapePhase(&sc, true); err != nil {
		return nil, err
	}
	b.stopServer()

	if err := w.check(b, reqs); err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	if err := b.ledger(w, reqs); err != nil {
		return nil, fmt.Errorf("determinism ledger: %w", err)
	}

	var t tally
	for _, r := range reqs {
		t.add(r.outcome)
	}
	var values map[string]float64
	var wanted []metricSpec
	if b.opts.trace {
		values, err = b.layerMetrics(w, reqs, sc)
		wanted = spec.PerLayer
	} else {
		values = b.endToEnd(w, reqs, setups, rss, t)
		wanted = spec.EndToEnd
	}
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if r.outcome != outcomeOK {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %s\n", r.idx, r.detail)
		}
	}
	for _, msg := range b.incorrect {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
	}
	res := &result{
		Correct:   t.bad() == 0 && len(b.incorrect) == 0,
		Attempted: t.attempted,
		Failed:    t.bad(),
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range wanted {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s produced no %s", w.name(), m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A failed request makes a latency percentile infinite; the
			// run is already marked incorrect, so report a huge finite
			// value JSON can carry.
			v = math.MaxFloat32
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if b.tr != nil {
		if err := os.MkdirAll(filepath.Join(b.opts.work, "spans"), 0o755); err == nil {
			path := filepath.Join(b.opts.work, "spans", fmt.Sprintf("%s-%d.jsonl", w.name(), b.opts.seed))
			if err := b.tr.write(path); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// timedPhase runs the workload's closed loop. Each client sends its next
// request only when the previous one has completed. No client starts a
// request once the workload's capacity is used up, or once the phase's
// time is up and at least minRequests have been started. It returns the
// requests in index order and the servers' peak RSS once rssAfter
// requests have been started (or at the end, if fewer were). RSS grows as
// the replay caches fill, so it is read after a fixed amount of work
// rather than after a fixed time.
func (b *bench) timedPhase(w workload) ([]request, float64, error) {
	var (
		mu     sync.Mutex
		next   int
		reqs   []request
		rss    float64
		rssErr error
		rssSet bool
		wg     sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(b.opts.seconds * float64(time.Second)))
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= w.capacity() || time.Now().After(deadline) && i >= w.minRequests() {
					mu.Unlock()
					return
				}
				next++
				if i == w.rssAfter() {
					rss, rssErr = b.peakRSS()
					rssSet = true
				}
				mu.Unlock()
				t0 := time.Now()
				root := b.tracedRoot(w, i)
				r := w.request(b, i, root)
				root.end()
				r.idx, r.traced = i, root != nil
				r.path = time.Since(t0) - r.offPath
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].idx < reqs[j].idx })
	if !rssSet {
		rss, rssErr = b.peakRSS()
	}
	return reqs, rss, rssErr
}

// tracedRoot opens request i's root span in the traced run. Requests are
// traced in alternating blocks of one input cycle, so traced and untraced
// requests of every kind exist to compare (see traceOverhead).
func (b *bench) tracedRoot(w workload, i int) *span {
	if b.tr == nil || (i/w.cycle())%2 == 0 {
		return nil
	}
	return b.tr.root(i, "request."+w.name())
}

// wholeCycles returns the requests of complete input cycles only, so
// every program of the cycle is weighed equally in the statistics.
func wholeCycles(reqs []request, cycle int) []request {
	n := len(reqs) / cycle * cycle
	if n == 0 {
		return reqs
	}
	return reqs[:n]
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(w workload, reqs []request, setups []float64, rss float64, t tally) map[string]float64 {
	sample := wholeCycles(reqs, w.cycle())
	lat := latencies(sample)
	tailP, ok := tailPercentile(len(lat), w.tailCeiling())
	note := ""
	if !ok {
		note = fmt.Sprintf(" (fewer than %d samples beyond it)", minBeyond)
	}
	fmt.Printf("# %s: %d requests (%d in whole cycles), latency_tail_ms is p%g%s, error_rate %.4g ratio (%d/%d)\n",
		w.name(), len(reqs), len(sample), tailP, note, t.errorRate(), t.bad(), t.attempted)
	var sims, ests, errs []float64
	for _, r := range sample {
		sims = append(sims, r.speedNum)
		ests = append(ests, r.speedDen)
	}
	for _, r := range reqs[:min(len(reqs), w.minRequests())] {
		errs = append(errs, r.errPct)
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"latency_p50_ms":    quantile(lat, 50),
		"latency_tail_ms":   quantile(lat, tailP),
		"requests_per_s":    throughput(sample, w.clients()),
		"peak_rss_mb":       rss,
		"runtime_error_pct": mean(errs),
		"sampled_speedup":   sampledSpeedup(sims, ests),
	}
}
