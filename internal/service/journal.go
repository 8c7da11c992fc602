package service

import (
	"encoding/json"
	"fmt"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// This file gives the job manager its durability: every job lifecycle
// transition is journaled to a store.WAL before Submit acknowledges or a
// worker moves on, and a restarted coordinator replays the journal to
// rebuild exactly the jobs it was killed with — same IDs, same trace
// IDs. Jobs whose result artifact already landed in the content-
// addressed store resolve on the spot (the crash beat the journal's done
// record, not the work); the rest re-enter the queue and recompute
// through the same artifact caches, so recovered results are
// byte-identical to an uninterrupted run. The journal engine itself —
// one-pass replay, torn-tail truncation, compaction policy, counters — is
// store.WAL, shared with the farm queue's task log (internal/farm/wal.go);
// this file holds only the job records, their fold and the snapshot that
// compaction writes back.

// Journal operation tags.
const (
	jopSubmit  = "submit"  // job accepted (or re-emitted by compaction)
	jopRunning = "running" // a worker picked the job up
	jopStage   = "stage"   // one pipeline stage completed
	jopDone    = "done"    // result stored; Artifact names where
	jopFailed  = "failed"  // terminal failure with its message
)

// journalRecord is the JSON payload of one job-journal WAL frame.
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Req, CfgHash, TraceKey, TraceID and CreatedNs describe the job on
	// submit records; compaction re-emits them for every retained job.
	Req       *Request `json:"req,omitempty"`
	CfgHash   string   `json:"cfg,omitempty"`
	TraceID   string   `json:"trace_id,omitempty"`
	CreatedNs int64    `json:"created_ns,omitempty"`
	// Stage names the completed stage on stage records (observability
	// and crash-point granularity; replay does not depend on it).
	Stage string `json:"stage,omitempty"`
	// Artifact names the store artifact holding the result on done
	// records — the journal never embeds result bytes, it points into
	// the content-addressed store.
	Artifact string `json:"artifact,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	// Error carries the failure message on failed records.
	Error      string `json:"error,omitempty"`
	FinishedNs int64  `json:"finished_ns,omitempty"`
}

// JobRecovery reports what a journaled manager rebuilt at startup.
type JobRecovery struct {
	// Records is the number of intact journal records replayed; Dropped
	// is the byte length of the torn tail (if any) discarded after them.
	Records int   `json:"journal_records"`
	Dropped int64 `json:"journal_dropped_bytes"`
	// Resolved jobs were live at the crash but their result artifact was
	// already in the store — they complete instantly, without recompute.
	Resolved int `json:"jobs_resolved"`
	// Requeued jobs were queued or running at the crash and re-entered
	// the queue under their original IDs.
	Requeued int `json:"jobs_requeued"`
	// Terminal jobs had finished (done or failed) before the crash and
	// are restored for status polling.
	Terminal int `json:"jobs_terminal"`
	// Unrecoverable jobs no longer validate (e.g. their trace left the
	// store); they are restored as failed rather than silently dropped.
	Unrecoverable int `json:"jobs_unrecoverable"`
}

// journalJob is one job's state as folded from the journal.
type journalJob struct {
	id        string
	req       Request
	traceID   string
	createdNs int64
	terminal  bool
	failed    bool
	cached    bool
	artifact  string
	errMsg    string
	finishNs  int64
}

// journalState is the fold target of a journal replay.
type journalState struct {
	jobs  map[string]*journalJob
	order []string
}

func newJournalState() *journalState {
	return &journalState{jobs: make(map[string]*journalJob)}
}

// applyJournal folds one record into the state. Records that do not
// resolve against the current state (an unknown id, a malformed payload)
// are skipped: replay must accept any intact prefix the framing layer
// delivers.
func (s *journalState) apply(rec journalRecord) {
	switch rec.Op {
	case jopSubmit:
		if rec.ID == "" || rec.Req == nil {
			return
		}
		if _, dup := s.jobs[rec.ID]; dup {
			return
		}
		s.jobs[rec.ID] = &journalJob{
			id: rec.ID, req: *rec.Req, traceID: rec.TraceID, createdNs: rec.CreatedNs,
		}
		s.order = append(s.order, rec.ID)
	case jopDone:
		if j, ok := s.jobs[rec.ID]; ok {
			j.terminal, j.failed = true, false
			j.artifact, j.cached, j.finishNs = rec.Artifact, rec.Cached, rec.FinishedNs
		}
	case jopFailed:
		if j, ok := s.jobs[rec.ID]; ok {
			j.terminal, j.failed = true, true
			j.errMsg, j.finishNs = rec.Error, rec.FinishedNs
		}
	case jopRunning, jopStage:
		// Progress markers: a job that got this far but no further is
		// still live and re-enqueues. Nothing to fold.
	}
}

// EnableJournal makes the manager's job state durable: lifecycle records
// are journaled to the write-ahead log at path, and any records already
// there — the normal case after a crash or restart — are replayed first.
// Replayed jobs keep their original IDs and trace IDs: terminal jobs are
// restored for status polling (results reloaded from their store
// artifacts), live jobs whose artifact already landed resolve
// immediately, and the rest re-enter the queue. The log is then
// compacted to exactly the retained state.
//
// Call it once, after SetFarm (recovered estimates may farm their
// points) and before the first Submit.
func (m *Manager) EnableJournal(path string) (JobRecovery, error) {
	state := newJournalState()
	w, err := store.RecoverWAL(path, state.apply)
	if err != nil {
		return JobRecovery{}, err
	}
	ws := w.Stats()
	rec := JobRecovery{Records: ws.Replayed, Dropped: ws.Dropped}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		w.Close()
		return JobRecovery{}, ErrClosed
	}
	m.journal = w
	for _, id := range state.order {
		jj := state.jobs[id]
		if n := jobSeq(id); n > m.seq {
			m.seq = n
		}
		j := &job{
			id:      jj.id,
			req:     jj.req,
			created: time.Unix(0, jj.createdNs),
			done:    make(chan struct{}),
			traceID: jj.traceID,
		}
		switch {
		case jj.terminal && jj.failed:
			j.recovered = true
			j.status = StatusFailed
			j.err = jj.errMsg
			j.finished = time.Unix(0, jj.finishNs)
			close(j.done)
			rec.Terminal++
		case jj.terminal:
			j.recovered = true
			b, err := m.st.GetArtifact(jj.req.Trace, jj.artifact)
			if err != nil {
				// The journal says done but the artifact is gone (a wiped or
				// partial store): the work needs redoing, so fall through to
				// the live-job path.
				m.recoverLiveLocked(j, &rec)
				break
			}
			j.status = StatusDone
			j.result = json.RawMessage(b)
			j.artifact = jj.artifact
			j.cached = jj.cached
			j.finished = time.Unix(0, jj.finishNs)
			close(j.done)
			rec.Terminal++
		default:
			m.recoverLiveLocked(j, &rec)
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	m.recovered.Store(int64(rec.Resolved + rec.Requeued + rec.Terminal))
	m.jobRecovery = rec
	if err := w.Compact(m.journalSnapshotLocked); err != nil {
		m.journal = nil
		w.Close()
		return JobRecovery{}, err
	}
	return rec, nil
}

// recoverLiveLocked restores one non-terminal journal job: resolve it
// from the store if its result artifact already landed, otherwise
// re-validate and re-enqueue it under its original ID. m.mu must be
// held. The job is marked recovered either way — it crossed a restart.
func (m *Manager) recoverLiveLocked(j *job, rec *JobRecovery) {
	j.recovered = true
	cfg, mode, dedup, err := m.validate(j.req)
	if err != nil {
		j.status = StatusFailed
		j.err = fmt.Sprintf("not recoverable after restart: %v", err)
		j.finished = time.Now()
		close(j.done)
		rec.Unrecoverable++
		return
	}
	j.cfg, j.mode, j.dedup = cfg, mode, dedup
	if name, err := m.artifactFor(j.req, cfg, mode); err == nil && name != "" {
		if b, aerr := m.st.GetArtifact(j.req.Trace, name); aerr == nil {
			// The worker (or this coordinator's dying breath) stored the
			// result, but the crash beat the done record: the job is done,
			// only the journal didn't know yet.
			j.status = StatusDone
			j.result = json.RawMessage(b)
			j.artifact = name
			j.cached = true
			j.finished = time.Now()
			close(j.done)
			rec.Resolved++
			return
		}
	}
	if prev, dup := m.inflight[dedup]; dup {
		// Two live journal jobs with one dedup key can only come from a
		// hand-damaged journal; coalesce onto the first like Submit would.
		j.status = StatusFailed
		j.err = fmt.Sprintf("duplicate of recovered job %s", prev.id)
		j.finished = time.Now()
		close(j.done)
		rec.Unrecoverable++
		return
	}
	if len(m.queue) == cap(m.queue) {
		j.status = StatusFailed
		j.err = "job queue full at recovery"
		j.finished = time.Now()
		close(j.done)
		rec.Unrecoverable++
		return
	}
	j.status = StatusQueued
	m.queue <- j // cannot block: len < cap observed under m.mu, workers only drain
	m.inflight[dedup] = j
	rec.Requeued++
}

// artifactFor names the store artifact a request's result lands in (the
// same name execute computes), so recovery can probe the store for work
// that finished before the crash.
func (m *Manager) artifactFor(req Request, cfg bp.Config, mode bp.WarmupMode) (string, error) {
	switch req.Kind {
	case KindAnalyze:
		return SelectionArtifact(cfg), nil
	case KindEstimate, KindSimulate:
		f, err := m.st.OpenTrace(req.Trace)
		if err != nil {
			return "", err
		}
		threads := f.Threads()
		f.Close()
		mc, err := MachineFor(threads, req.Sockets)
		if err != nil {
			return "", err
		}
		if req.Kind == KindSimulate {
			return ActualArtifact(mc), nil
		}
		return AdaptiveEstimateArtifact(cfg, mc, mode, req.TargetCI), nil
	}
	return "", fmt.Errorf("service: unknown job kind %q", req.Kind)
}

// jobSeq extracts the numeric suffix of a "job-%06d" id (0 for any other
// shape), so recovered managers continue the ID sequence past every
// replayed job instead of reissuing IDs.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 0 {
		return 0
	}
	return n
}

// submitRecord builds a job's submit journal record.
func submitRecord(j *job, cfgHash string) journalRecord {
	req := j.req
	return journalRecord{
		Op: jopSubmit, ID: j.id, Req: &req, CfgHash: cfgHash,
		TraceID: j.traceID, CreatedNs: j.created.UnixNano(),
	}
}

// appendJournalLocked journals one record (a no-op for in-memory
// managers); m.mu must be held. The record is durable — framed,
// checksummed, fsynced — before this returns nil. Once the journal has
// grown far past the retained job set it is compacted first, so the new
// record lands in the fresh log.
func (m *Manager) appendJournalLocked(rec journalRecord) error {
	if m.journal == nil || m.journalClosed {
		return nil
	}
	if err := m.journal.MaybeCompact(len(m.jobs), m.journalSnapshotLocked); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return m.journal.Append(b)
}

// journalBestEffortLocked appends a progress or terminal record, eating
// the error: by the time these records are written the durable truth —
// the request in the submit record and the result artifact in the store
// — already exists, so recovery reaches the same state with or without
// them. Failing the job over a telemetry-grade append would turn a disk
// hiccup into a lost result. Errors still count in JournalStats.Errors.
func (m *Manager) journalBestEffortLocked(rec journalRecord) {
	_ = m.appendJournalLocked(rec)
}

// journalSnapshotLocked encodes the retained jobs as journal records — a
// submit record per job, plus its terminal record where one applies — for
// compaction. Jobs pruned from the retention window drop out of the
// journal at the next compaction, so the log tracks the manager's bounded
// memory, not its full history. m.mu must be held (or the manager not yet
// shared).
func (m *Manager) journalSnapshotLocked() ([][]byte, error) {
	var recs []journalRecord
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		recs = append(recs, submitRecord(j, hashJSON(j.cfg)))
		switch j.status {
		case StatusDone:
			recs = append(recs, journalRecord{
				Op: jopDone, ID: j.id, Artifact: j.artifact, Cached: j.cached,
				FinishedNs: j.finished.UnixNano(),
			})
		case StatusFailed:
			recs = append(recs, journalRecord{
				Op: jopFailed, ID: j.id, Error: j.err, FinishedNs: j.finished.UnixNano(),
			})
		}
	}
	return store.MarshalRecords(recs)
}

// closeJournalLocked journals nothing further and releases the file; the
// log itself stays on disk for the next life. m.mu must be held.
func (m *Manager) closeJournalLocked() {
	if m.journal == nil || m.journalClosed {
		return
	}
	m.journalClosed = true
	m.journal.Close()
}

// JournalStats describes the job journal's activity for health surfaces.
type JournalStats struct {
	Durable     bool  `json:"durable"`
	Bytes       int64 `json:"bytes"`
	Appends     int64 `json:"appends"`
	Errors      int64 `json:"errors"`
	Compactions int64 `json:"compactions"`
}

// JournalStats returns the job journal's activity counters (zero-valued
// when no journal is enabled).
func (m *Manager) JournalStats() JournalStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return JournalStats{}
	}
	ws := m.journal.Stats()
	return JournalStats{
		Durable: true, Bytes: ws.Bytes,
		Appends: ws.Appends, Errors: ws.Errors, Compactions: ws.Compactions,
	}
}

// JobRecovery returns what this manager rebuilt from its job journal at
// EnableJournal (all zeros without a journal or with a fresh log).
func (m *Manager) JobRecovery() JobRecovery {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobRecovery
}
