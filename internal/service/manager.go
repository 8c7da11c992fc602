package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/adaptive"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// Kind is a job type.
type Kind string

// Job kinds: the three expensive pipeline stages a client can request.
const (
	// KindAnalyze profiles and clusters a trace, producing its selection.
	KindAnalyze Kind = "analyze"
	// KindSimulate runs the ground-truth full detailed simulation.
	KindSimulate Kind = "simulate"
	// KindEstimate simulates only the barrierpoints (analyzing first if no
	// selection is cached) and reconstructs whole-program metrics.
	KindEstimate Kind = "estimate"
)

// Status is a job lifecycle state.
type Status string

// Job states, in order.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Request describes a job to run against a stored trace.
type Request struct {
	Kind  Kind   `json:"kind"`
	Trace string `json:"trace"` // content key of a stored trace
	// Signature selects the analysis config: "bbv", "reuse_dist" or
	// "combine" (default).
	Signature string `json:"signature,omitempty"`
	// MaxK overrides the clustering's maximum cluster count for analyze and
	// estimate jobs; 0 keeps the paper default. Re-clustering a profiled
	// trace with a different MaxK reuses every cached region profile and
	// pays only k-means (the profile cache is keyed by region content, not
	// by clustering parameters).
	MaxK int `json:"max_k,omitempty"`
	// Sockets sizes the Table I machine for simulate/estimate; 0 derives
	// it from the trace's thread count.
	Sockets int `json:"sockets,omitempty"`
	// Warmup is the estimate warmup mode: "cold" (default), "mru" or
	// "mru+prev".
	Warmup string `json:"warmup,omitempty"`
	// Exec selects how an estimate's barrierpoint simulations run:
	// "auto" (default: farm when live workers are registered, local
	// otherwise), "local" (in-process pool), or "farm" (force the
	// distributed queue; such a job waits for workers to join).
	Exec string `json:"exec,omitempty"`
	// TargetCI, for estimate jobs, asks for adaptive sampling: additional
	// regions are promoted to detailed simulation until the runtime
	// estimate's 95% confidence interval has a relative half-width of at
	// most this value (e.g. 0.02 for ±2%), or the selection is exhausted.
	// 0 runs the standard one-point-per-cluster estimate; intervals are
	// reported either way.
	TargetCI float64 `json:"ci,omitempty"`
}

// Snapshot is a point-in-time copy of a job's state, safe to serialize.
type Snapshot struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	Status  Status  `json:"status"`
	Error   string  `json:"error,omitempty"`
	// Cached reports that the job's result came from the store without
	// recomputation.
	Cached   bool            `json:"cached"`
	Result   json.RawMessage `json:"result,omitempty"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	// TraceID is the job's telemetry trace ID, minted at Submit and
	// propagated onto every farm task run on the job's behalf.
	TraceID string `json:"trace_id,omitempty"`
	// Recovered reports that the job crossed a coordinator restart: it
	// was replayed from the job journal as live work and either resolved
	// from the store or re-enqueued under its original ID.
	Recovered bool `json:"recovered,omitempty"`
	// Span is the job's stage-timing span: per-stage durations (profile,
	// cluster, simulate-points, reconstruct, adaptive-round, ...) that
	// partition the job's wall clock. Present once the job has started.
	Span *obs.SpanData `json:"span,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (s Snapshot) Terminal() bool { return s.Status == StatusDone || s.Status == StatusFailed }

// Stats counts manager activity since construction.
type Stats struct {
	Submitted    int64 `json:"jobs_submitted"`
	Deduped      int64 `json:"jobs_deduped"`
	Done         int64 `json:"jobs_done"`
	Failed       int64 `json:"jobs_failed"`
	CacheHits    int64 `json:"cache_hits"`
	ColdAnalyses int64 `json:"cold_analyses"`
	Farmed       int64 `json:"jobs_farmed"`
	// FarmRecovered counts tasks the attached farm queue rebuilt from its
	// write-ahead log at startup (pending + requeued in-flight leases).
	FarmRecovered int64 `json:"farm_tasks_recovered"`
	// Recovered counts jobs replayed live from the job journal at startup
	// (resolved from the store or re-enqueued under their original IDs).
	Recovered int64 `json:"jobs_recovered"`
	// AdaptiveRounds and AdaptivePromoted count promotion rounds and
	// promoted regions across all CI-targeted estimate jobs.
	AdaptiveRounds   int64 `json:"adaptive_rounds"`
	AdaptivePromoted int64 `json:"adaptive_promoted"`
	// ProfileCacheHits and ProfileComputed count region profiles served
	// from the content-addressed profile cache vs. computed (and cached),
	// across cold analyses and streaming ingests.
	ProfileCacheHits int64 `json:"profile_cache_hits"`
	ProfileComputed  int64 `json:"profile_computed"`
	// IngestedTraces and IngestedProfiles count streaming trace uploads and
	// the region profiles they stored while bytes were still arriving.
	IngestedTraces   int64 `json:"ingested_traces"`
	IngestedProfiles int64 `json:"ingested_profiles"`
}

// Errors returned by Submit.
var (
	ErrClosed = errors.New("service: manager is shut down")
	ErrBusy   = errors.New("service: job queue is full")
)

type job struct {
	id                         string
	req                        Request
	dedup                      string
	cfg                        bp.Config
	mode                       bp.WarmupMode
	status                     Status
	err                        string
	cached                     bool
	result                     json.RawMessage
	created, started, finished time.Time
	done                       chan struct{}
	traceID                    string
	span                       *obs.Span // set when the job starts running
	// artifact is the store artifact name the result landed in (set by
	// execute); the journal's done record points at it instead of
	// embedding bytes.
	artifact string
	// recovered marks a job replayed live from the job journal.
	recovered bool
}

// maxRetained bounds the finished jobs kept for status polling: once
// exceeded, the oldest terminal jobs (and their result payloads) are
// dropped. In-flight jobs are never dropped, so a long-running server's
// memory stays proportional to its queue, not its history.
const maxRetained = 1024

// Manager runs jobs asynchronously on a bounded worker pool over one
// store. Identical requests (same kind, trace and parameters) submitted
// while one is queued or running coalesce onto a single job, and the
// profiling stage itself is additionally single-flight per (trace,
// analysis config) across job kinds (see AnalyzeCached) — combined with
// the store's artifact cache, every expensive stage runs at most once per
// (trace, parameters).
type Manager struct {
	st    *store.Store
	farm  *farm.Queue // nil until SetFarm; estimates then stay local
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]*job // dedup key → queued or running job
	seq      int
	closed   bool

	// Job journal (EnableJournal): lifecycle records appended under m.mu
	// so the log's order matches the in-memory transitions it mirrors.
	journal       *store.WAL
	journalClosed bool
	jobRecovery   JobRecovery

	submitted, deduped, done, failed, cacheHits, coldAnalyses, farmed   atomic.Int64
	farmRecovered, adaptiveRounds, adaptivePromoted, recovered          atomic.Int64
	farmFallbacks                                                       atomic.Int64
	profileCacheHits, profileComputed, ingestedTraces, ingestedProfiles atomic.Int64

	// Telemetry: reg serves GET /metrics (the atomics above stay the
	// source of truth, bridged in via CounterFuncs); jobDur and stageDur
	// are the per-kind job and per-stage latency histograms; spans retains
	// finished job spans for bptool trace and debugging.
	reg      *obs.Registry
	jobDur   *obs.HistogramVec
	stageDur *obs.HistogramVec
	spans    *obs.SpanRecorder
}

// New starts a manager with the given worker count (GOMAXPROCS if <= 0)
// and queue depth (256 if <= 0).
func New(st *store.Store, workers, depth int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 256
	}
	m := &Manager{
		st:       st,
		queue:    make(chan *job, depth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		reg:      obs.NewRegistry(),
		spans:    obs.NewSpanRecorder(0),
	}
	m.registerMetrics()
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.run(j)
			}
		}()
	}
	return m
}

// registerMetrics bridges the manager's counters into its metrics
// registry. The atomics remain the single source of truth; every
// bp_jobs_* family reads them at scrape time.
func (m *Manager) registerMetrics() {
	r := m.reg
	counter := func(name, help string, a *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(a.Load()) })
	}
	counter("bp_jobs_submitted_total", "Jobs accepted by Submit (dedup hits excluded).", &m.submitted)
	counter("bp_jobs_deduped_total", "Submissions coalesced onto an in-flight identical job.", &m.deduped)
	counter("bp_jobs_done_total", "Jobs finished successfully.", &m.done)
	counter("bp_jobs_failed_total", "Jobs finished in error.", &m.failed)
	counter("bp_job_cache_hits_total", "Jobs answered from the artifact store without recomputation.", &m.cacheHits)
	counter("bp_cold_analyses_total", "Profiling+clustering runs (selection cache misses).", &m.coldAnalyses)
	counter("bp_jobs_farmed_total", "Estimate jobs whose points ran on the distributed queue.", &m.farmed)
	counter("bp_farm_tasks_recovered_total", "Tasks rebuilt from the farm write-ahead log at startup.", &m.farmRecovered)
	counter("bp_jobs_recovered_total", "Jobs restored from the job journal at startup (already terminal, resolved from the store, or re-enqueued).", &m.recovered)
	counter("bp_farm_fallbacks_total", "Auto-mode estimates that fell back to local execution after a farm error.", &m.farmFallbacks)
	counter("bp_adaptive_rounds_total", "Adaptive promotion rounds across all CI-targeted estimates.", &m.adaptiveRounds)
	counter("bp_adaptive_promoted_total", "Regions promoted to detailed simulation by the adaptive sampler.", &m.adaptivePromoted)
	counter("bp_profile_cache_hits_total", "Region profiles served from the content-addressed profile cache.", &m.profileCacheHits)
	counter("bp_profile_computed_total", "Region profiles computed (and cached) on profile-cache misses.", &m.profileComputed)
	counter("bp_ingest_traces_total", "Traces ingested through the streaming upload path.", &m.ingestedTraces)
	counter("bp_ingest_profiles_total", "Region profiles stored during streaming ingest, while the upload was still transferring.", &m.ingestedProfiles)

	m.jobDur = r.HistogramVec("bp_job_seconds", "Job wall-clock latency by kind.",
		"kind", obs.DefLatencyBuckets)
	m.stageDur = r.HistogramVec("bp_job_stage_seconds", "Pipeline stage latency by stage.",
		"stage", obs.DefLatencyBuckets)
}

// Metrics returns the manager's metrics registry; servers mount
// Metrics().Handler() at GET /metrics and may register their own series
// on it.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// Spans returns the recorder of finished job spans, newest last.
func (m *Manager) Spans() *obs.SpanRecorder { return m.spans }

// Store returns the manager's artifact store.
func (m *Manager) Store() *store.Store { return m.st }

// SetFarm attaches a distributed work queue; estimates may then farm
// their barrierpoint simulations out to registered workers. Call it once,
// before the first Submit. A durable queue (farm.NewDurableQueue) may
// arrive already holding tasks recovered from its write-ahead log; a
// re-submitted estimate job re-attaches to them through the queue's
// TraceKey+artifact dedup in Enqueue, so a coordinator restart loses no
// queued or in-flight simulation work.
func (m *Manager) SetFarm(q *farm.Queue) {
	m.farm = q
	if q != nil {
		rec := q.Recovery()
		m.farmRecovered.Store(int64(rec.Pending + rec.Requeued))
		q.Instrument(m.reg)
	}
}

// Farm returns the attached work queue, or nil when execution is
// local-only.
func (m *Manager) Farm() *farm.Queue { return m.farm }

// Stats returns activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Submitted:        m.submitted.Load(),
		Deduped:          m.deduped.Load(),
		Done:             m.done.Load(),
		Failed:           m.failed.Load(),
		CacheHits:        m.cacheHits.Load(),
		ColdAnalyses:     m.coldAnalyses.Load(),
		Farmed:           m.farmed.Load(),
		FarmRecovered:    m.farmRecovered.Load(),
		Recovered:        m.recovered.Load(),
		AdaptiveRounds:   m.adaptiveRounds.Load(),
		AdaptivePromoted: m.adaptivePromoted.Load(),
		ProfileCacheHits: m.profileCacheHits.Load(),
		ProfileComputed:  m.profileComputed.Load(),
		IngestedTraces:   m.ingestedTraces.Load(),
		IngestedProfiles: m.ingestedProfiles.Load(),
	}
}

// validate parses and normalizes a request, returning the analysis config,
// warmup mode and the job's deduplication key. The key covers exactly the
// parameters the kind consumes — an analyze ignores warmup and sockets, a
// simulate ignores warmup and the analysis config, and sockets are
// normalized against the trace's thread count — so requests that differ
// only in irrelevant or equivalent fields coalesce onto one job.
func (m *Manager) validate(req Request) (bp.Config, bp.WarmupMode, string, error) {
	if !m.st.HasTrace(req.Trace) {
		return bp.Config{}, 0, "", fmt.Errorf("service: trace %q: %w", req.Trace, store.ErrNotFound)
	}
	cfg, err := ConfigFor(req.Signature, req.MaxK)
	if err != nil {
		return bp.Config{}, 0, "", err
	}
	if req.MaxK > 0 && req.Kind == KindSimulate {
		// Ground truth does not cluster; rejecting keeps the dedup key honest.
		return bp.Config{}, 0, "", fmt.Errorf("service: max_k applies only to analyze and estimate jobs, not %q", req.Kind)
	}
	mode, err := ParseWarmup(req.Warmup)
	if err != nil {
		return bp.Config{}, 0, "", err
	}
	if req.TargetCI < 0 || req.TargetCI >= 1 {
		return bp.Config{}, 0, "", fmt.Errorf("service: target ci %v out of range [0, 1)", req.TargetCI)
	}
	if req.TargetCI > 0 && req.Kind != KindEstimate {
		return bp.Config{}, 0, "", fmt.Errorf("service: target ci applies only to estimate jobs, not %q", req.Kind)
	}
	switch req.Exec {
	case "", ExecAuto, ExecLocal:
	case ExecFarm:
		if req.Kind != KindEstimate {
			// Analyze is one profiling pass and simulate is a sequential
			// ground-truth run — neither decomposes into farmable points.
			// Rejecting rather than silently running locally keeps the
			// API honest.
			return bp.Config{}, 0, "", fmt.Errorf("service: exec %q applies only to estimate jobs, not %q", req.Exec, req.Kind)
		}
		if m.farm == nil {
			return bp.Config{}, 0, "", errors.New("service: farm execution requested but no farm queue is attached")
		}
	default:
		return bp.Config{}, 0, "", fmt.Errorf("service: unknown exec mode %q (want auto, local or farm)", req.Exec)
	}
	var dedup string
	switch req.Kind {
	case KindAnalyze:
		dedup = fmt.Sprintf("%s|%s|%s", req.Kind, req.Trace, hashJSON(cfg))
	case KindSimulate, KindEstimate:
		f, err := m.st.OpenTrace(req.Trace)
		if err != nil {
			return bp.Config{}, 0, "", err
		}
		threads := f.Threads()
		f.Close()
		mc, err := MachineFor(threads, req.Sockets)
		if err != nil {
			return bp.Config{}, 0, "", err
		}
		if req.Kind == KindSimulate {
			dedup = fmt.Sprintf("%s|%s|%d", req.Kind, req.Trace, mc.Sockets)
		} else {
			// Exec modes produce bit-identical results but very different
			// latencies (a forced farm job waits for workers), so they do
			// not coalesce; the estimate artifact still dedups the actual
			// compute across modes. The CI target is part of the identity:
			// tighter targets simulate more regions and land on different
			// artifacts.
			dedup = fmt.Sprintf("%s|%s|%s|%d|%s|%s|%g", req.Kind, req.Trace, hashJSON(cfg), mc.Sockets, mode, normalizeExec(req.Exec), req.TargetCI)
		}
	default:
		return bp.Config{}, 0, "", fmt.Errorf("service: unknown job kind %q", req.Kind)
	}
	return cfg, mode, dedup, nil
}

// Exec mode labels for Request.Exec.
const (
	ExecAuto  = "auto"
	ExecLocal = "local"
	ExecFarm  = "farm"
)

func normalizeExec(s string) string {
	if s == "" {
		return ExecAuto
	}
	return s
}

// Submit queues a job, or returns the in-flight job already running the
// identical request. The returned snapshot has at least StatusQueued.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	cfg, mode, dedup, err := m.validate(req)
	if err != nil {
		return Snapshot{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if j, ok := m.inflight[dedup]; ok {
		m.deduped.Add(1)
		return m.snapshotLocked(j), nil
	}
	// Reject before journaling: under m.mu only Submit (and recovery)
	// produce into the queue, and workers only drain it, so observing
	// len < cap here makes the send below non-blocking.
	if len(m.queue) == cap(m.queue) {
		return Snapshot{}, ErrBusy
	}
	m.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.seq),
		req:     req,
		dedup:   dedup,
		cfg:     cfg,
		mode:    mode,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		traceID: obs.NewTraceID(),
	}
	// Journal-before-ack: a job is accepted only once its submit record
	// is durable, so every acknowledged job survives a crash. (A crash
	// after the append but before the client reads the response re-runs
	// work that was never acked — harmless, the artifacts dedup.)
	if err := m.appendJournalLocked(submitRecord(j, hashJSON(cfg))); err != nil {
		m.seq--
		return Snapshot{}, fmt.Errorf("service: journaling job: %w", err)
	}
	m.queue <- j
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.inflight[dedup] = j
	m.submitted.Add(1)
	return m.snapshotLocked(j), nil
}

// Get returns the current state of a job.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, len(m.order))
	for i, id := range m.order {
		out[i] = m.snapshotLocked(m.jobs[id])
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(j), nil
}

// Shutdown stops accepting jobs, lets queued and running jobs finish, and
// returns when the pool has drained or ctx expires. During the drain the
// farm queue (if attached) keeps leasing and accepting results, so
// in-flight farmed jobs finish normally as workers stream their tasks
// back. If ctx expires first, the farm queue is closed: leased tasks are
// requeued and every farmed job blocked on them fails promptly with
// farm.ErrClosed instead of hanging until lease TTLs expire — their
// completed points are already cached in the store, so a retry after
// restart redoes only the unfinished ones. A durable farm queue keeps its
// live tasks journaled in the write-ahead log across Close, so the next
// coordinator recovers them outright.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		if m.farm != nil {
			m.farm.Close()
		}
		// Every worker has exited, so every final done/failed record is
		// already journaled; only now is the journal closed. (Closing
		// earlier would race job completion against the WAL handle.)
		m.mu.Lock()
		m.closeJournalLocked()
		m.mu.Unlock()
		return nil
	case <-ctx.Done():
	}
	if m.farm != nil {
		m.farm.Close()
		// Closing the queue unblocks farm waits; give the pool a short
		// grace to observe the failures and drain cleanly.
		select {
		case <-drained:
		case <-time.After(time.Second):
		}
	}
	// The drain timed out: workers may still be appending, so the journal
	// handle stays open and the exit looks like a crash to the next life —
	// which is exactly the case replay is built for. Unfinished jobs
	// re-enqueue or resolve from the store on restart.
	return ctx.Err()
}

// pruneLocked evicts the oldest terminal jobs past the retention bound;
// m.mu must be held. Eviction skips over still-queued or running jobs.
func (m *Manager) pruneLocked() {
	excess := len(m.jobs) - maxRetained
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && (j.status == StatusDone || j.status == StatusFailed) {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// snapshotLocked copies a job's state; m.mu must be held.
func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:        j.id,
		Request:   j.req,
		Status:    j.status,
		Error:     j.err,
		Cached:    j.cached,
		Result:    j.result,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		TraceID:   j.traceID,
		Recovered: j.recovered,
	}
	if j.span != nil {
		d := j.span.Data()
		s.Span = &d
	}
	return s
}

// run executes one job on a worker goroutine.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.span = obs.NewSpan(j.traceID, string(j.req.Kind))
	j.span.SetAttr("job", j.id)
	if j.recovered {
		// The marker bptool trace and debug surfaces show for jobs that
		// crossed a coordinator restart.
		j.span.SetAttr("recovered", "true")
	}
	m.journalBestEffortLocked(journalRecord{Op: jopRunning, ID: j.id})
	m.mu.Unlock()

	result, cached, err := m.execute(j)
	j.span.Finish()
	m.jobDur.With(string(j.req.Kind)).ObserveDuration(time.Since(j.started))
	m.spans.Record(j.span.Data())

	m.mu.Lock()
	j.finished = time.Now()
	j.cached = cached
	if err != nil {
		j.status = StatusFailed
		j.err = err.Error()
		m.journalBestEffortLocked(journalRecord{
			Op: jopFailed, ID: j.id, Error: j.err, FinishedNs: j.finished.UnixNano()})
	} else {
		j.status = StatusDone
		j.result = result
		// Best-effort: the result artifact is already durable in the store,
		// so recovery resolves this job even if the done record never lands.
		m.journalBestEffortLocked(journalRecord{
			Op: jopDone, ID: j.id, Artifact: j.artifact, Cached: cached,
			FinishedNs: j.finished.UnixNano()})
	}
	delete(m.inflight, j.dedup)
	m.pruneLocked()
	m.mu.Unlock()
	if err != nil {
		m.failed.Add(1)
	} else {
		m.done.Add(1)
	}
	if cached {
		m.cacheHits.Add(1)
	}
	close(j.done)
}

// stageObserver feeds one job's stage timings to both its span and the
// manager-wide per-stage histogram.
func (m *Manager) stageObserver(j *job) bp.StageObserver {
	return func(stage string, d time.Duration) {
		j.span.Observe(stage, d)
		m.stageDur.With(stage).ObserveDuration(d)
		m.mu.Lock()
		m.journalBestEffortLocked(journalRecord{Op: jopStage, ID: j.id, Stage: stage})
		m.mu.Unlock()
	}
}

// execute dispatches on the job kind. The cached return value reports that
// the job's own result artifact was already in the store.
func (m *Manager) execute(j *job) (json.RawMessage, bool, error) {
	obsrv := m.stageObserver(j)
	switch j.req.Kind {
	case KindAnalyze:
		j.artifact = SelectionArtifact(j.cfg)
		sel, cached, stats, err := AnalyzeCached(m.st, j.req.Trace, j.cfg, obsrv)
		if err != nil {
			return nil, false, err
		}
		if !cached {
			m.coldAnalyses.Add(1)
			m.recordProfileStats(j, stats)
		}
		return json.RawMessage(sel), cached, nil

	case KindEstimate:
		// One open serves machine sizing and simulation; only a cold
		// selection miss inside AnalyzeCached opens the trace again.
		f, err := m.st.OpenTrace(j.req.Trace)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		mc, err := MachineFor(f.Threads(), j.req.Sockets)
		if err != nil {
			return nil, false, err
		}
		name := AdaptiveEstimateArtifact(j.cfg, mc, j.mode, j.req.TargetCI)
		j.artifact = name
		if b, err := m.st.GetArtifact(j.req.Trace, name); err == nil {
			return json.RawMessage(b), true, nil
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, false, err
		}
		selBytes, selCached, stats, err := AnalyzeCached(m.st, j.req.Trace, j.cfg, obsrv)
		if err != nil {
			return nil, false, err
		}
		if !selCached {
			m.coldAnalyses.Add(1)
			m.recordProfileStats(j, stats)
		}
		bind0 := time.Now()
		sel, err := bp.LoadSelection(bytes.NewReader(selBytes))
		if err != nil {
			return nil, false, err
		}
		// Warmup capture and the local point runner stream regions from f.
		a, err := sel.Bind(f)
		if err != nil {
			return nil, false, err
		}
		obsrv("bind", time.Since(bind0))
		// The adaptive controller drives the same runner the plain estimate
		// would use, so promotions farm out (and cache per point) exactly
		// like the initial barrierpoints. With no target it just attaches
		// intervals to the standard one-point-per-cluster estimate.
		res, err := adaptive.Run(a, m.pointRunner(j), mc, j.mode,
			adaptive.Options{TargetRel: j.req.TargetCI, Observer: obsrv})
		if err != nil {
			return nil, false, err
		}
		m.adaptiveRounds.Add(int64(len(res.Rounds)))
		m.adaptivePromoted.Add(int64(len(res.Simulated) - len(a.Selection.Points)))
		return m.putResult(j.req.Trace, name, newIntervalResult(
			res.Estimate, mc, j.mode.String(), len(res.Simulated), len(res.Rounds), j.req.TargetCI, res.Met))

	case KindSimulate:
		f, err := m.st.OpenTrace(j.req.Trace)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		mc, err := MachineFor(f.Threads(), j.req.Sockets)
		if err != nil {
			return nil, false, err
		}
		name := ActualArtifact(mc)
		j.artifact = name
		if b, err := m.st.GetArtifact(j.req.Trace, name); err == nil {
			return json.RawMessage(b), true, nil
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, false, err
		}
		sim0 := time.Now()
		full, err := bp.SimulateFull(f, mc)
		obsrv("simulate-full", time.Since(sim0))
		if err != nil {
			return nil, false, err
		}
		return m.putResult(j.req.Trace, name, newEstimateResult(bp.ActualFrom(full), mc, ""))

	default:
		return nil, false, fmt.Errorf("service: unknown job kind %q", j.req.Kind)
	}
}

// recordProfileStats attributes a cold analysis's profile-cache activity
// to the job's span (profiles_cached / profiles_computed, the numbers the
// CI smoke greps for) and to the manager-wide counters.
func (m *Manager) recordProfileStats(j *job, stats ProfileStats) {
	j.span.SetAttr("profiles_cached", fmt.Sprintf("%d", stats.Cached))
	j.span.SetAttr("profiles_computed", fmt.Sprintf("%d", stats.Computed))
	m.profileCacheHits.Add(int64(stats.Cached))
	m.profileComputed.Add(int64(stats.Computed))
}

// pointRunner picks the execution strategy for a job's barrierpoint
// simulations: the distributed queue when the job forces it or when auto
// mode sees live workers, otherwise the local pool — in both cases behind
// the store's per-point result cache, so farm runs, local runs and bptool
// -cache runs all share per-point work. Farm tasks themselves dedup
// against the same artifacts inside the queue.
func (m *Manager) pointRunner(j *job) bp.PointRunner {
	local := func() bp.PointRunner {
		return &farm.CachedRunner{St: m.st, TraceKey: j.req.Trace, Inner: bp.LocalRunner{}}
	}
	useFarm := false
	switch normalizeExec(j.req.Exec) {
	case ExecFarm:
		useFarm = m.farm != nil
	case ExecAuto:
		useFarm = m.farm != nil && m.farm.LiveWorkers() > 0
	}
	if !useFarm {
		return local()
	}
	m.farmed.Add(1)
	fr := farm.QueueRunner{Q: m.farm, TraceKey: j.req.Trace, TraceID: j.traceID}
	if normalizeExec(j.req.Exec) == ExecFarm {
		// Forced farm mode fails loudly rather than quietly running local.
		return fr
	}
	// Auto mode degrades gracefully: a farm-side failure (queue closed,
	// task attempts exhausted against a flaky fleet) falls back to local
	// execution instead of failing the job. Points that completed on the
	// farm are already cached per artifact, so the fallback recomputes
	// only what the fleet never finished.
	return &fallbackRunner{primary: fr, fallback: local(), onFallback: func(err error) {
		m.farmFallbacks.Add(1)
		j.span.SetAttr("farm_fallback", err.Error())
	}}
}

// fallbackRunner tries its primary point runner and, on error, reruns
// the request on the fallback (auto-mode farm → local degradation).
type fallbackRunner struct {
	primary, fallback bp.PointRunner
	onFallback        func(error)
}

func (r *fallbackRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	out, err := r.primary.RunPoints(p, regions, mc, mode)
	if err == nil {
		return out, nil
	}
	if r.onFallback != nil {
		r.onFallback(err)
	}
	return r.fallback.RunPoints(p, regions, mc, mode)
}

// putResult serializes, caches and returns a job result artifact.
func (m *Manager) putResult(key, name string, v any) (json.RawMessage, bool, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, false, err
	}
	if err := m.st.PutArtifact(key, name, b); err != nil {
		return nil, false, err
	}
	return json.RawMessage(b), false, nil
}
