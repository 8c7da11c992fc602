package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/adaptive"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/service"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/warmup"
)

// The traced run's in-process half: after the timed phase, the benchmark
// calls each layer's public entry point on the run's own seeded inputs,
// one span per call, against the stopped server's store (read back) and a
// scratch store on the same file system. Nothing inside the program is
// instrumented.

// layerStats are the non-span numbers the in-process pass measures.
type layerStats map[string]float64

// layerPass carries one workload's in-process replay.
type layerPass struct {
	b       *bench
	served  *store.Store // the timed phase's store, reopened after bpserve stopped
	scratch *store.Store // fresh store for write timings, deleted with the run
	stats   layerStats
	req     int // span request IDs, distinct from the timed phase's
}

func newLayerPass(b *bench) (*layerPass, error) {
	served, err := store.Open(b.store)
	if err != nil {
		return nil, err
	}
	scratch, err := store.Open(filepath.Join(b.runDir, "scratch-store"))
	if err != nil {
		return nil, err
	}
	return &layerPass{b: b, served: served, scratch: scratch, stats: layerStats{}, req: 1 << 30}, nil
}

// root opens the span tree of one in-process input.
func (lp *layerPass) root(name string) *span {
	lp.req++
	return lp.b.tr.root(lp.req, "layers."+name)
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	r *bytes.Reader
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// traceLayers runs the trace-side layers over one input: stream decode,
// trace store write, per-region digests (bytes read counted), region
// profiling, and the profile-store read and codec decode of every region.
// It returns the open trace and its region profiles as the server stored
// them.
func (lp *layerPass) traceLayers(parent *span, in input) (*tracefile.File, []*signature.RegionData, error) {
	body, err := in.record()
	if err != nil {
		return nil, nil, err
	}
	var derr error
	parent.time("tracefile.decode", func() {
		_, derr = tracefile.DecodeStream(bytes.NewReader(body), func(tracefile.RegionChunks) error { return nil })
	})
	if derr != nil {
		return nil, nil, derr
	}
	parent.time("store.put_trace", func() { _, _, derr = lp.scratch.PutTrace(bytes.NewReader(body)) })
	if derr != nil {
		return nil, nil, derr
	}

	ra := &countingReaderAt{r: bytes.NewReader(body)}
	f, err := tracefile.NewReader(ra, int64(len(body)))
	if err != nil {
		return nil, nil, err
	}
	digests := make([]string, f.Regions())
	ra.n.Store(0)
	parent.time("tracefile.digest", func() {
		for i := range digests {
			if digests[i], derr = f.RegionDigest(i); derr != nil {
				return
			}
		}
	})
	if derr != nil {
		return nil, nil, derr
	}
	lp.stats["tracefile.digest_bytes"] += float64(ra.n.Load())
	lp.stats["digest_traces"]++

	pass := parent.child("bench.profile_pass")
	_, derr = tracefile.DecodeStream(bytes.NewReader(body), func(rc tracefile.RegionChunks) error {
		pass.time("profile.region", func() { profile.Region(rc.Region(), f.Threads()) })
		return nil
	})
	pass.end()
	if derr != nil {
		return nil, nil, derr
	}

	profiles := make([]*signature.RegionData, len(digests))
	for i, d := range digests {
		var blob []byte
		parent.time("store.get_profile", func() { blob, derr = lp.served.GetProfile(d, signature.CodecVersion) })
		if derr != nil {
			return nil, nil, fmt.Errorf("%s region %d: %w", in, i, derr)
		}
		parent.time("signature.decode", func() { profiles[i], derr = signature.DecodeRegionData(blob) })
		if derr != nil {
			return nil, nil, derr
		}
	}
	return f, profiles, nil
}

// selectLayers builds signatures and selects barrierpoints for one
// analysis config.
func (lp *layerPass) selectLayers(parent *span, profiles []*signature.RegionData, cfg bp.Config) error {
	var svs []signature.SV
	var weights []float64
	parent.time("signature.build", func() { svs, weights = signature.BuildAll(profiles, cfg.Signature) })
	var err error
	parent.time("cluster.select", func() { _, err = cluster.Select(svs, weights, cfg.Cluster) })
	return err
}

// timingRunner is a bp.PointRunner that simulates points one at a time
// under spans: warmup capture once per call, then per point a warmup
// replay and the detailed simulation. Its results are the LocalRunner's.
type timingRunner struct {
	parent *span
	instrs uint64
	simNs  int64
}

func (tr *timingRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	mru := mode == bp.MRUWarmup || mode == bp.MRUPrevWarmup
	if mode == bp.MRUPrevWarmup {
		return nil, fmt.Errorf("timing runner: %v warmup is not timed", mode)
	}
	var snaps map[int]warmup.Snapshot
	if mru {
		tr.parent.time("warmup.capture", func() { snaps = warmup.Capture(p, regions, mc.L3.Lines()*mc.Sockets) })
	}
	out := make(map[int]bp.RegionResult, len(regions))
	for _, r := range regions {
		m := sim.New(mc)
		if mru {
			tr.parent.time("warmup.replay", func() { warmup.Replay(m, snaps[r]) })
		}
		t0 := time.Now()
		var res bp.RegionResult
		tr.parent.time("sim.point", func() { res = m.RunRegion(p.Region(r)) })
		tr.simNs += int64(time.Since(t0))
		tr.instrs += res.Instrs()
		out[r] = res
	}
	return out, nil
}

// replayEstimate re-runs a served estimate in-process: the selection the
// server stored for r's trace, bound to p, through adaptive.Run with
// runner. The estimate must equal the served one. It also returns the
// selection, whose per-region instruction counts weigh the result, and
// the name the server stores the estimate under.
func replayEstimate(st *store.Store, r request, p bp.Program, req service.Request, runner bp.PointRunner, obsrv bp.StageObserver) (*adaptive.Result, *bp.SavedSelection, string, error) {
	cfg, err := service.ConfigFor(req.Signature, req.MaxK)
	if err != nil {
		return nil, nil, "", err
	}
	raw, err := st.GetArtifact(r.key, service.SelectionArtifact(cfg))
	if err != nil {
		return nil, nil, "", err
	}
	sel, err := bp.LoadSelection(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, "", err
	}
	a, err := sel.Bind(p)
	if err != nil {
		return nil, nil, "", err
	}
	mode, err := bp.ParseWarmup(req.Warmup)
	if err != nil {
		return nil, nil, "", err
	}
	mc, err := service.MachineFor(p.Threads(), req.Sockets)
	if err != nil {
		return nil, nil, "", err
	}
	res, err := adaptive.Run(a, runner, mc, mode, adaptive.Options{TargetRel: req.TargetCI, Observer: obsrv})
	if err != nil {
		return nil, nil, "", err
	}
	served, err := estimate(r.jobs[0].Result)
	if err != nil {
		return nil, nil, "", err
	}
	if res.Estimate.TimeNs != served.TimeNs || len(res.Simulated) != r.points {
		return nil, nil, "", fmt.Errorf("%s: in-process estimate (%v ns, %d points) differs from the served one (%v ns, %d points)",
			r.in, res.Estimate.TimeNs, len(res.Simulated), served.TimeNs, r.points)
	}
	return res, sel, service.AdaptiveEstimateArtifact(cfg, mc, mode, req.TargetCI), nil
}

// estimateLayers re-runs a served estimate in-process through the timing
// runner and a stage observer, then times storing its result.
func (lp *layerPass) estimateLayers(parent *span, r request, f *tracefile.File, req service.Request) error {
	tr := &timingRunner{parent: parent}
	// The controller's own stages arrive through its StageObserver seam
	// and are recorded as spans ending when reported.
	var obsrv bp.StageObserver = func(stage string, d time.Duration) { parent.record("adaptive."+stage, d) }
	_, _, artifact, err := replayEstimate(lp.served, r, f, req, tr, obsrv)
	if err != nil {
		return err
	}
	lp.stats["sim_instrs"] += float64(tr.instrs)
	lp.stats["sim_ns"] += float64(tr.simNs)
	parent.time("store.put_artifact", func() { err = lp.scratch.PutArtifact(r.key, artifact, r.jobs[0].Result) })
	return err
}

// layerInputs caps how many of a run's inputs the in-process pass
// replays, keeping the traced run's length bounded.
const layerInputs = 3

// estimateLayerPass is the in-process pass of the estimate workloads: the
// first requests' traces through every layer an estimate touches.
func estimateLayerPass(b *bench, reqs []request, req service.Request) (layerStats, error) {
	lp, err := newLayerPass(b)
	if err != nil {
		return nil, err
	}
	done := 0
	for _, r := range reqs {
		if done == layerInputs {
			break
		}
		if r.outcome != outcomeOK {
			continue
		}
		root := lp.root(r.in.Program)
		f, profiles, err := lp.traceLayers(root, r.in)
		if err == nil {
			err = lp.selectLayers(root, profiles, bp.DefaultConfig())
		}
		if err == nil {
			err = lp.estimateLayers(root, r, f, req)
		}
		root.end()
		if err != nil {
			return nil, err
		}
		done++
	}
	return lp.stats, nil
}

func (w *coldEstimate) layers(b *bench, reqs []request) (layerStats, error) {
	return estimateLayerPass(b, reqs, w.estimateReq())
}

func (w *farmAdaptive) layers(b *bench, reqs []request) (layerStats, error) {
	return estimateLayerPass(b, reqs, w.estimateReq())
}

// layers replays recluster's four traces through the trace-side layers,
// then the first block's configurations through signature building and
// selection.
func (w *recluster) layers(b *bench, reqs []request) (layerStats, error) {
	lp, err := newLayerPass(b)
	if err != nil {
		return nil, err
	}
	profiles := make([][]*signature.RegionData, len(w.traces))
	for t, copies := range w.traces {
		root := lp.root(copies[0].in.Program)
		_, profiles[t], err = lp.traceLayers(root, copies[0].in)
		root.end()
		if err != nil {
			return nil, err
		}
	}
	for _, r := range reqs[:min(len(reqs), w.cycle())] {
		if r.outcome != outcomeOK {
			continue
		}
		cfg, err := service.ConfigFor(r.cfg.Signature, r.cfg.MaxK)
		if err != nil {
			return nil, err
		}
		root := lp.root(fmt.Sprintf("%s-%s-k%d", r.in.Program, r.cfg.Signature, r.cfg.MaxK))
		err = lp.selectLayers(root, profiles[r.cfg.Trace], cfg)
		if err == nil {
			root.time("store.put_artifact", func() {
				err = lp.scratch.PutArtifact(r.key, service.SelectionArtifact(cfg), r.output)
			})
		}
		root.end()
		if err != nil {
			return nil, err
		}
	}
	return lp.stats, nil
}
