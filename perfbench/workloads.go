package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
	suite "barrierpoint/internal/workload"
)

// workload is one traffic mix. Inputs are pure functions of (seed,
// request index), so requests can be regenerated after the timed phase
// for checks and for the traced run's in-process layer calls.
type workload interface {
	name() string
	// clients is the number of closed-loop clients.
	clients() int
	// cycle is the number of requests in one pass over the input mix;
	// latency statistics use whole cycles only.
	cycle() int
	// minRequests is how many requests a run always completes: enough
	// that at least minBeyond latency samples of whole cycles lie beyond
	// the median. The deterministic metrics (runtime_error_pct, the
	// adaptive counts) are taken over exactly these.
	minRequests() int
	// rssAfter is how many requests the timed phase has started when it
	// reads peak_rss_mb.
	rssAfter() int
	// capacity is how many distinct requests the workload can make; the
	// timed phase ends early, without failing, when they are used up.
	capacity() int
	// tailCeiling caps the percentile latency_tail_ms reports at the one a
	// run reaches at this commit, so a faster commit with more samples
	// still reports the same statistic.
	tailCeiling() float64
	// setups is how many times a run sets up its server and inputs;
	// setup_s is the median.
	setups() int
	// farm reports whether the run needs a bpworker.
	farm() bool
	// setup generates, uploads and analyzes the run's standing inputs on
	// a freshly started server.
	setup(b *bench) error
	// request performs request i and reports its outcome.
	request(b *bench, i int, root *span) request
	// check verifies outputs after the timed phase: spot checks against
	// in-process runs of the library, and accuracy against ground truth.
	check(b *bench, reqs []request) error
	// layers calls each layer's public entry point in-process on the
	// run's inputs, under spans (traced run only).
	layers(b *bench, reqs []request) (layerStats, error)
}

var workloads = map[string]func() workload{
	"cold-estimate": func() workload { return &coldEstimate{} },
	"recluster":     func() workload { return &recluster{} },
	"farm-adaptive": func() workload { return &farmAdaptive{} },
}

// request is one completed (or failed) request.
type request struct {
	idx     int
	traced  bool
	outcome outcome
	detail  string

	latencyMs float64
	// speedNum / speedDen are this request's terms of sampled_speedup.
	speedNum, speedDen float64
	// errPct is the runtime estimate's error against ground truth.
	errPct float64
	// output is the request's canonical output bytes (compacted JSON
	// results), recorded in the determinism ledger.
	output []byte
	// points and rounds are the adaptive controller's exact counts.
	points, rounds int
	// offPath is the time the request spent on work off its request
	// path: trace generation and the ground-truth simulate job. path is
	// the rest of the request's time.
	offPath, path time.Duration
	// jobs are the terminal job snapshots, spans included.
	jobs []service.Snapshot
	// in, key and cfg identify the request's trace and, on recluster,
	// its configuration.
	in  input
	key string
	cfg reclusterCfg
}

// fail records a transport, HTTP or job failure.
func (r *request) fail(err error) request {
	r.outcome = outcomeFailed
	if errors.Is(err, errRefused) {
		r.outcome = outcomeRefused
	}
	r.detail = err.Error()
	return *r
}

// wrong records an output that did not check out.
func (r *request) wrong(format string, args ...any) request {
	r.outcome = outcomeIncorrect
	r.detail = fmt.Sprintf(format, args...)
	return *r
}

// msBetween returns the milliseconds from t0 to t1.
func msBetween(t0, t1 time.Time) float64 { return float64(t1.Sub(t0)) / 1e6 }

// compact canonicalizes a JSON document (the server indents results
// inside job snapshots, the library does not).
func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// estimate decodes an estimate or ground-truth result and sanity-checks
// it.
func estimate(raw []byte) (service.EstimateResult, error) {
	var e service.EstimateResult
	if err := json.Unmarshal(raw, &e); err != nil {
		return e, err
	}
	if !(e.TimeNs > 0) || math.IsInf(e.TimeNs, 0) || !(e.Instrs > 0) {
		return e, fmt.Errorf("implausible result: time %g ns, %g instructions", e.TimeNs, e.Instrs)
	}
	return e, nil
}

// estimateThenSimulate runs an estimate job and then the ground-truth
// simulate job on the same stored trace, filling r's timing, accuracy and
// output fields. t0 is the request's start, for its latency.
func estimateThenSimulate(b *bench, r *request, root *span, t0 time.Time, est service.Request) request {
	es, sub, err := b.cl.run(root, est)
	if err != nil {
		return r.fail(err)
	}
	r.latencyMs = msBetween(t0, es.Finished)
	r.speedDen = msBetween(sub, es.Finished)
	r.jobs = append(r.jobs, es)
	g0 := time.Now()
	gt, sub, err := b.cl.run(root, service.Request{Kind: service.KindSimulate, Trace: r.key})
	r.offPath += time.Since(g0)
	if err != nil {
		return r.fail(err)
	}
	r.speedNum = msBetween(sub, gt.Finished)
	r.jobs = append(r.jobs, gt)
	if es.Cached || gt.Cached {
		return r.wrong("%s: served from cache on a trace the store had never seen", r.in)
	}
	e, err := estimate(es.Result)
	if err != nil {
		return r.wrong("%s: estimate: %v", r.in, err)
	}
	g, err := estimate(gt.Result)
	if err != nil {
		return r.wrong("%s: ground truth: %v", r.in, err)
	}
	if e.CI == nil || e.CI.PointsSimulated < 1 {
		return r.wrong("%s: estimate carries no simulated points", r.in)
	}
	r.points, r.rounds = e.CI.PointsSimulated, e.CI.AdaptiveRounds
	// Accuracy is measured (runtime_error_pct), not gated: at these scales
	// and with cold warmup the program's own error can exceed 100%.
	r.errPct = math.Abs(e.TimeNs-g.TimeNs) / g.TimeNs * 100
	ce, err1 := compact(es.Result)
	cg, err2 := compact(gt.Result)
	if err := errors.Join(err1, err2); err != nil {
		return r.wrong("%s: %v", r.in, err)
	}
	r.output = append(append(ce, '\n'), cg...)
	r.outcome = outcomeOK
	return *r
}

// uploadFresh uploads a generated trace that the store must not hold yet.
func uploadFresh(b *bench, parent *span, in input, body []byte) (traceMeta, error) {
	m, err := b.cl.upload(parent, body)
	if err != nil {
		return m, err
	}
	if m.Existed {
		return m, fmt.Errorf("%s: the store already held this trace", in)
	}
	return m, nil
}

// spotCheckEstimate re-runs a served estimate request in-process, through
// the service package on a fresh store with exec "local", and compares the
// result byte for byte.
func spotCheckEstimate(b *bench, r request, req service.Request) error {
	body, err := r.in.record()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.runDir, "spot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	key, _, err := st.PutTrace(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if key != r.key {
		return fmt.Errorf("%s: in-process trace key %s, server stored %s", r.in, key, r.key)
	}
	m := service.New(st, 2, 0)
	defer m.Shutdown(context.Background())
	req.Trace, req.Exec = key, service.ExecLocal
	snap, err := m.Submit(req)
	if err != nil {
		return err
	}
	if snap, err = m.Wait(context.Background(), snap.ID); err != nil {
		return err
	}
	if snap.Status != service.StatusDone {
		return fmt.Errorf("%s: in-process estimate failed: %s", r.in, snap.Error)
	}
	want, err := compact(snap.Result)
	if err != nil {
		return err
	}
	got := r.output[:bytes.IndexByte(r.output, '\n')]
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served estimate differs from an in-process exec=local run:\n served %s\n local  %s",
			r.in, got, want)
	}
	return nil
}

// firstOK returns the first successful request, if any.
func firstOK(reqs []request) (request, bool) {
	for _, r := range reqs {
		if r.outcome == outcomeOK {
			return r, true
		}
	}
	return request{}, false
}

// ---- cold-estimate --------------------------------------------------------

// coldScale is cold-estimate's workload scale. It is fixed, so a program's
// estimate and error do not vary between seeds; seeds vary the order and
// the salts.
const coldScale = 0.25

// coldEstimate: one client; each request uploads a trace the store has
// never seen and estimates it (MRU warmup, local execution), then runs
// the ground-truth simulation, timed separately. Set-up generates the
// first cycle's traces; later ones are generated between requests,
// outside their latency.
type coldEstimate struct {
	first [][]byte
}

func (*coldEstimate) name() string         { return "cold-estimate" }
func (*coldEstimate) clients() int         { return 1 }
func (*coldEstimate) cycle() int           { return len(suite.Names()) }
func (*coldEstimate) minRequests() int     { return 3 * len(suite.Names()) }
func (*coldEstimate) rssAfter() int        { return 2 * len(suite.Names()) }
func (*coldEstimate) capacity() int        { return math.MaxInt }
func (*coldEstimate) tailCeiling() float64 { return 50 }
func (*coldEstimate) setups() int          { return 3 }
func (*coldEstimate) farm() bool           { return false }
func (*coldEstimate) estimateReq() service.Request {
	return service.Request{Kind: service.KindEstimate, Warmup: "mru", Exec: service.ExecLocal}
}

func (w *coldEstimate) setup(b *bench) error {
	w.first = make([][]byte, w.cycle())
	for i := range w.first {
		var err error
		if w.first[i], err = w.input(b.opts.seed, i).record(); err != nil {
			return err
		}
	}
	return nil
}

// input returns request i's trace: cycle c visits the eight suite
// programs in a seeded order.
func (*coldEstimate) input(seed int64, i int) input {
	names := suite.Names()
	perm := newRNG(seed, 100+uint64(i/len(names))).perm(len(names))
	return input{
		Program: names[perm[i%len(names)]],
		Scale:   coldScale,
		Salt:    saltFor(seed, i),
	}
}

func (w *coldEstimate) request(b *bench, i int, root *span) request {
	r := request{in: w.input(b.opts.seed, i)}
	var body []byte
	if i < len(w.first) {
		body, w.first[i] = w.first[i], nil
	} else {
		g0 := time.Now()
		var err error
		body, err = r.in.record()
		r.offPath = time.Since(g0)
		if err != nil {
			return r.fail(err)
		}
	}
	t0 := time.Now()
	m, err := uploadFresh(b, root, r.in, body)
	if err != nil {
		return r.fail(err)
	}
	r.key = m.Key
	req := w.estimateReq()
	req.Trace = m.Key
	return estimateThenSimulate(b, &r, root, t0, req)
}

func (w *coldEstimate) check(b *bench, reqs []request) error {
	if r, ok := firstOK(reqs); ok {
		if err := spotCheckEstimate(b, r, w.estimateReq()); err != nil {
			b.incorrect = append(b.incorrect, err.Error())
		}
	}
	return nil
}

// ---- farm-adaptive ------------------------------------------------------

// farmScale is farm-adaptive's workload scale.
const farmScale = 0.05

// farmPrograms are the small traces farm-adaptive estimates.
var farmPrograms = []string{"npb-ft", "npb-cg", "parsec-bodytrack"}

// farmAdaptive: one client against bpserve (durable farm WAL and job
// journal) with one bpworker. Set-up ingests and analyzes a pool of
// fresh traces; each request runs a farmed, CI-targeted estimate on a
// pool trace never farmed before, then its ground truth.
type farmAdaptive struct {
	pool []storedTrace
}

// storedTrace is a generated trace and the key the server stored it
// under.
type storedTrace struct {
	in  input
	key string
}

// farmPool is the number of traces set-up prepares, and so the most
// requests a run makes: eight cycles, one more than minRequests.
const farmPool = 24

func (*farmAdaptive) name() string         { return "farm-adaptive" }
func (*farmAdaptive) clients() int         { return 1 }
func (*farmAdaptive) cycle() int           { return len(farmPrograms) }
func (*farmAdaptive) minRequests() int     { return 7 * len(farmPrograms) }
func (*farmAdaptive) rssAfter() int        { return 4 * len(farmPrograms) }
func (*farmAdaptive) capacity() int        { return farmPool }
func (*farmAdaptive) tailCeiling() float64 { return 50 }
func (*farmAdaptive) setups() int          { return 5 }
func (*farmAdaptive) farm() bool           { return true }
func (*farmAdaptive) estimateReq() service.Request {
	return service.Request{Kind: service.KindEstimate, Warmup: "cold", Exec: service.ExecFarm, TargetCI: 0.001}
}

func (*farmAdaptive) input(seed int64, i int) input {
	perm := newRNG(seed, 200+uint64(i/len(farmPrograms))).perm(len(farmPrograms))
	return input{
		Program: farmPrograms[perm[i%len(farmPrograms)]],
		Scale:   farmScale,
		Salt:    saltFor(seed, i),
	}
}

func (w *farmAdaptive) setup(b *bench) error {
	w.pool = w.pool[:0]
	for i := 0; i < farmPool; i++ {
		in := w.input(b.opts.seed, i)
		body, err := in.record()
		if err != nil {
			return err
		}
		m, err := uploadFresh(b, nil, in, body)
		if err != nil {
			return err
		}
		if _, _, err := b.cl.run(nil, service.Request{Kind: service.KindAnalyze, Trace: m.Key}); err != nil {
			return err
		}
		w.pool = append(w.pool, storedTrace{in: in, key: m.Key})
	}
	return nil
}

func (w *farmAdaptive) request(b *bench, i int, root *span) request {
	r := request{in: w.pool[i].in, key: w.pool[i].key}
	req := w.estimateReq()
	req.Trace = r.key
	return estimateThenSimulate(b, &r, root, time.Now(), req)
}

func (w *farmAdaptive) check(b *bench, reqs []request) error {
	if r, ok := firstOK(reqs); ok {
		if err := spotCheckEstimate(b, r, w.estimateReq()); err != nil {
			b.incorrect = append(b.incorrect, err.Error())
		}
	}
	// Every estimate is replayed in-process (a few ms each at this
	// scale) and must match the served one. Its simulated points give
	// sampled_speedup on this workload: the paper's serial speedup, Σ
	// program instructions ÷ Σ instructions simulated in detail. The
	// host-time ratio of cold-estimate would mix a poll-bound farmed
	// estimate with a CPU-bound local simulation, and its run-to-run
	// spread (0.21 over ten seeds on 2 vCPUs) exceeds its 0.2 bound.
	st, err := store.Open(b.store)
	if err != nil {
		return err
	}
	for i := range reqs {
		r := &reqs[i]
		if r.outcome != outcomeOK {
			continue
		}
		res, sel, _, err := replayEstimate(st, *r, r.in.program(), w.estimateReq(), bp.LocalRunner{}, nil)
		if err != nil {
			r.wrong("%v", err)
			continue
		}
		r.speedNum, r.speedDen = 0, 0
		for _, n := range sel.RegionInstrs {
			r.speedNum += float64(n)
		}
		for _, region := range res.Simulated {
			r.speedDen += float64(sel.RegionInstrs[region])
		}
	}
	return nil
}

// ---- recluster ------------------------------------------------------------

// reclusterScale is recluster's workload scale.
const reclusterScale = 0.2

// reclusterPrograms are the traces set-up uploads and analyzes.
var reclusterPrograms = []string{"npb-bt", "npb-lu", "npb-mg", "npb-sp"}

// reclusterSignatures are the analyze signatures requests choose from.
var reclusterSignatures = []string{"bbv", "reuse_dist", "combine"}

// reclusterCopies is how many renamed copies of each program set-up
// uploads (copy 0 is the original). A copy has its own trace key but the
// original's region content, so its upload and every analysis of it read
// the original's cached profiles; copies multiply the configurations a
// run can request without repeating one.
const reclusterCopies = 3

// kStrata split the max_k values requests use into low, middle and high.
// max_k stops at 15: from 16 up, k-means on npb-sp's reuse-distance
// signatures takes seconds per request (1.8 s at 16, 5.9 s at 20, 51 s at
// 40 on 2 vCPUs), so a handful of requests would fill a run.
var kStrata = [][]int{{2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}}

// reclusterCfg is one analyze request: a set-up trace and copy, a
// signature and a clustering max_k.
type reclusterCfg struct {
	Trace     int    `json:"trace"`
	Copy      int    `json:"copy"`
	Signature string `json:"signature"`
	MaxK      int    `json:"max_k"`
}

// reclusterBlocks is how many blocks the schedule holds before a
// configuration would repeat: every copy, stratum rotation and value of
// the smallest stratum once.
var reclusterBlocks = reclusterCopies * len(kStrata) * len(kStrata[0])

// reclusterConfig returns request i's configuration. Requests come in
// blocks of twelve: each trace once per signature, with one low, one
// middle and one high max_k, all on one copy. From block to block the
// copy changes, then which signature takes which stratum, then the value
// within each stratum. The seed orders the requests within a block. So
// every block costs about the same and every seed runs the same blocks,
// which keeps latency and accuracy steady across seeds, and no
// configuration repeats within reclusterBlocks blocks. ok is false beyond
// them.
func reclusterConfig(seed int64, i int) (cfg reclusterCfg, ok bool) {
	pairs := len(reclusterPrograms) * len(reclusterSignatures)
	block := i / pairs
	if block >= reclusterBlocks {
		return cfg, false
	}
	pair := newRNG(seed, 300+uint64(block)).perm(pairs)[i%pairs]
	t, s := pair/len(reclusterSignatures), pair%len(reclusterSignatures)
	j := block / reclusterCopies
	stratum := kStrata[(s+j)%len(kStrata)]
	return reclusterCfg{
		Trace:     t,
		Copy:      block % reclusterCopies,
		Signature: reclusterSignatures[s],
		MaxK:      stratum[(j/len(kStrata))%len(stratum)],
	}, true
}

// recluster: two clients; set-up uploads and analyzes four traces (and
// uploads their renamed copies), then each request re-analyzes one under
// a configuration not requested before in the run, so every region
// profile is a cache hit and only digesting, profile reads and k-means
// remain.
type recluster struct {
	traces [][]storedTrace // by program, then copy
	truth  []truthData
}

func (*recluster) name() string { return "recluster" }
func (*recluster) clients() int { return 2 }
func (*recluster) cycle() int {
	return len(reclusterPrograms) * len(reclusterSignatures)
}
func (w *recluster) minRequests() int { return len(kStrata) * w.cycle() }
func (w *recluster) rssAfter() int    { return 2 * w.minRequests() }
func (*recluster) capacity() int {
	return len(reclusterPrograms) * len(reclusterSignatures) * reclusterBlocks
}
func (*recluster) tailCeiling() float64 { return 90 }
func (*recluster) setups() int          { return 3 }
func (*recluster) farm() bool           { return false }

func (w *recluster) setup(b *bench) error {
	w.traces = w.traces[:0]
	for t, prog := range reclusterPrograms {
		var copies []storedTrace
		for c := 0; c < reclusterCopies; c++ {
			in := input{Program: prog, Scale: reclusterScale, Salt: saltFor(b.opts.seed, t), Copy: c}
			body, err := in.record()
			if err != nil {
				return err
			}
			m, err := uploadFresh(b, nil, in, body)
			if err != nil {
				return err
			}
			if c == 0 {
				if _, _, err := b.cl.run(nil, service.Request{Kind: service.KindAnalyze, Trace: m.Key}); err != nil {
					return err
				}
			}
			copies = append(copies, storedTrace{in: in, key: m.Key})
		}
		w.traces = append(w.traces, copies)
	}
	return nil
}

func (w *recluster) request(b *bench, i int, root *span) request {
	cfg, _ := reclusterConfig(b.opts.seed, i)
	tr := w.traces[cfg.Trace][cfg.Copy]
	r := request{in: tr.in, key: tr.key, cfg: cfg}
	snap, sub, err := b.cl.run(root, service.Request{
		Kind: service.KindAnalyze, Trace: tr.key, Signature: cfg.Signature, MaxK: cfg.MaxK})
	if err != nil {
		return r.fail(err)
	}
	r.latencyMs = msBetween(sub, snap.Finished)
	r.jobs = append(r.jobs, snap)
	if snap.Cached {
		return r.wrong("%s %+v: selection served from cache for a configuration never requested", tr.in, cfg)
	}
	sel, err := bp.LoadSelection(bytes.NewReader(snap.Result))
	if err != nil {
		return r.wrong("%s %+v: %v", tr.in, cfg, err)
	}
	if sel.K < 1 || sel.K > cfg.MaxK || len(sel.Points) == 0 {
		return r.wrong("%s %+v: selection has k=%d and %d points", tr.in, cfg, sel.K, len(sel.Points))
	}
	// sampled_speedup on recluster is the selection's instruction-count
	// reduction (the paper's serial speedup), summed over requests.
	for _, n := range sel.RegionInstrs {
		r.speedNum += float64(n)
	}
	for _, p := range sel.Points {
		r.speedDen += float64(sel.RegionInstrs[p.Region])
	}
	if r.output, err = compact(snap.Result); err != nil {
		return r.wrong("%s: %v", tr.in, err)
	}
	r.outcome = outcomeOK
	return r
}
