package farm

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// This file gives the queue its durability: every state transition is
// journaled to a store.WAL before it is applied in memory, and a restarted
// coordinator replays the journal to rebuild exactly the pending and
// in-flight tasks it was killed with. See doc.go ("Durability") for the
// record format and recovery semantics.

// WAL operation tags. The journal is the source of truth on replay: each
// record describes one applied transition, so replay is a pure fold with
// no dependence on queue configuration (MaxAttempts may even change
// between restarts without invalidating the log).
const (
	opEnqueue  = "enqueue"  // a new task entered the queue (or survived a compaction)
	opLease    = "lease"    // a worker took the task; Attempt is the lease's attempt number
	opRequeue  = "requeue"  // a lease ended in failure/expiry; task back to pending
	opComplete = "complete" // result stored as a store artifact; task done
	opFail     = "fail"     // attempts exhausted; task failed permanently
)

// walRecord is the JSON payload of one WAL frame.
type walRecord struct {
	Op string `json:"op"`
	// Task is set on enqueue records; compaction re-emits live tasks as
	// enqueue records carrying their current Attempt.
	Task *Task `json:"task,omitempty"`
	// Failures carries a task's accumulated per-attempt failure log across
	// compaction.
	Failures []string `json:"failures,omitempty"`
	// ID names the task for lease/requeue/complete/fail records.
	ID string `json:"id,omitempty"`
	// Worker and Attempt describe a lease.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Msg is the failure message logged by requeue/fail records.
	Msg string `json:"msg,omitempty"`
}

// Recovery reports what a durable queue rebuilt from its journal.
type Recovery struct {
	// Records is the number of intact journal records replayed; Dropped
	// is the byte length of the torn tail (if any) discarded after them.
	Records int   `json:"wal_records"`
	Dropped int64 `json:"wal_dropped_bytes"`
	// Pending tasks were queued (never leased, or requeued) at the crash;
	// Requeued tasks were leased in flight — their workers may be gone, so
	// they re-enter the pending queue immediately.
	Pending  int `json:"tasks_pending"`
	Requeued int `json:"leases_requeued"`
	// StoreHits are recovered tasks whose result artifact already sits in
	// the store (the worker uploaded it, but the crash beat the journal's
	// complete record); they resolve instantly instead of re-running.
	StoreHits int `json:"store_hits"`
	// Completed and Failed count terminal transitions observed in the
	// journal — work that needed nothing at recovery beyond compaction.
	Completed int `json:"tasks_completed"`
	Failed    int `json:"tasks_failed"`
}

// walTask is a task's state as reconstructed from the journal.
type walTask struct {
	Task
	failures []string
	leased   bool
	worker   string
	// seq orders tasks for deterministic requeueing: assigned when a task
	// (re-)enters the pending queue, or when a lease record is replayed
	// (so in-flight tasks requeue in lease order after the pending ones).
	seq int
}

// walState is the fold target of a journal replay.
type walState struct {
	tasks     map[string]*walTask
	nextSeq   int
	completed int
	failed    int
}

func newWALState() *walState {
	return &walState{tasks: make(map[string]*walTask)}
}

// apply folds one journal record into the state. Records that do not
// resolve against the current state (an unknown id, a lease of a finished
// task) are skipped: replay must accept any intact prefix the framing
// layer delivers, including logs from a fuzzer.
func (s *walState) apply(rec walRecord) {
	switch rec.Op {
	case opEnqueue:
		if rec.Task == nil || rec.Task.ID == "" {
			return
		}
		t := &walTask{Task: *rec.Task, failures: rec.Failures, seq: s.nextSeq}
		s.nextSeq++
		s.tasks[t.ID] = t
	case opLease:
		t, ok := s.tasks[rec.ID]
		if !ok {
			return
		}
		t.leased = true
		t.worker = rec.Worker
		if rec.Attempt > 0 {
			t.Attempt = rec.Attempt
		} else {
			t.Attempt++
		}
		t.seq = s.nextSeq
		s.nextSeq++
	case opRequeue:
		t, ok := s.tasks[rec.ID]
		if !ok {
			return
		}
		if rec.Msg != "" {
			t.failures = append(t.failures, rec.Msg)
		}
		t.leased = false
		t.worker = ""
		t.seq = s.nextSeq
		s.nextSeq++
	case opComplete:
		if _, ok := s.tasks[rec.ID]; ok {
			delete(s.tasks, rec.ID)
			s.completed++
		}
	case opFail:
		if _, ok := s.tasks[rec.ID]; ok {
			delete(s.tasks, rec.ID)
			s.failed++
		}
	}
}

// live returns the recovered tasks ordered for requeueing: by seq, which
// interleaves pending tasks in their queue order and puts each in-flight
// lease where its lease record fell in the journal.
func (s *walState) live() []*walTask {
	out := make([]*walTask, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// NewDurableQueue creates a queue whose state is journaled to the
// write-ahead log at walPath. If the log already holds records — the
// normal case after a coordinator crash or restart — they are replayed
// first: tasks that were pending return to the pending queue in order,
// tasks that were leased re-enter pending immediately (the leasing worker
// may be gone; if it is not, its eventual upload is accepted
// idempotently), and tasks whose result artifact already reached the
// store resolve on the spot. The log is then compacted to exactly the
// live state before the queue starts. Recovered tasks carry fresh
// tickets with no waiters; a re-submitted job re-attaches to them through
// Enqueue's TraceKey+artifact dedup.
func NewDurableQueue(st *store.Store, cfg Config, walPath string) (*Queue, Recovery, error) {
	state := newWALState()
	w, err := store.RecoverWAL(walPath, state.apply)
	if err != nil {
		return nil, Recovery{}, err
	}
	ws := w.Stats()
	rec := Recovery{
		Records: ws.Replayed, Dropped: ws.Dropped,
		Completed: state.completed, Failed: state.failed,
	}
	q := newQueue(st, cfg)
	q.wal = w
	for _, wt := range state.live() {
		// A result uploaded between the artifact store write and the
		// journal's complete record shows up here as a live task with a
		// finished artifact: count it done instead of re-simulating (the
		// next Enqueue for this point dedups against the store).
		if b, err := st.GetArtifact(wt.TraceKey, wt.Artifact); err == nil {
			var res bp.RegionResult
			if json.Unmarshal(b, &res) == nil {
				rec.StoreHits++
				continue
			}
		}
		t := &task{
			Task:     wt.Task,
			dedup:    wt.TraceKey + "|" + wt.Artifact,
			failures: wt.failures,
			created:  time.Now(), // latency telemetry restarts at recovery
			ticket:   &Ticket{Region: wt.Region, done: make(chan struct{})},
		}
		if _, dup := q.byDedup[t.dedup]; dup {
			// Two live tasks for one dedup key can only come from a
			// hand-damaged or fuzzed journal; keep the first so the runtime
			// invariant (one live task per key) holds.
			continue
		}
		if wt.leased {
			t.failures = append(t.failures,
				fmt.Sprintf("attempt %d: coordinator restarted while leased to worker %s", wt.Attempt, wt.worker))
			rec.Requeued++
		} else {
			rec.Pending++
		}
		if n := taskSeq(t.ID); n > q.seq {
			q.seq = n
		}
		q.tasks[t.ID] = t
		q.byDedup[t.dedup] = t
		q.pending = append(q.pending, t)
	}
	q.recovery = rec
	if err := q.compactLocked(); err != nil {
		w.Close()
		return nil, Recovery{}, err
	}
	go q.sweep()
	return q, rec, nil
}

// taskSeq extracts the numeric suffix of a "task-%06d" id (0 for any
// other shape — a journal written by another tool still recovers, the id
// sequence just restarts above whatever parses).
func taskSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "task-%d", &n); err != nil || n < 0 {
		return 0
	}
	return n
}

// appendWALLocked journals one record (a no-op for in-memory queues);
// q.mu must be held. The record is durable — framed, checksummed,
// fsynced — before this returns nil, so callers apply the in-memory
// transition only after the journal acknowledged it; on error they must
// leave the in-memory state untouched. When the journal has grown far
// past the live state it is compacted first, so the new record lands in
// the fresh log.
func (q *Queue) appendWALLocked(rec walRecord) error {
	if q.wal == nil {
		return nil
	}
	if err := q.wal.MaybeCompact(len(q.tasks), q.snapshotLocked); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := q.wal.Append(b); err != nil {
		return err
	}
	if q.crashHook != nil {
		if err := q.crashHook(rec.Op); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the journal to exactly the live tasks (see
// snapshotLocked); q.mu must be held (or the queue not yet shared).
func (q *Queue) compactLocked() error { return q.wal.Compact(q.snapshotLocked) }

// snapshotLocked encodes the live tasks as journal records: one enqueue
// record per task (carrying its current attempt count and failure log),
// plus a lease record for each task currently out on a worker. q.mu must
// be held (or the queue not yet shared).
func (q *Queue) snapshotLocked() ([][]byte, error) {
	// Pending tasks first, in queue order, then any remaining live tasks
	// (the leased ones) by id: replaying the compacted log must rebuild
	// the same pending order the queue holds now.
	emitted := make(map[string]bool, len(q.tasks))
	var order []*task
	for _, t := range q.pending {
		if q.tasks[t.ID] != t || emitted[t.ID] {
			continue
		}
		emitted[t.ID] = true
		order = append(order, t)
	}
	rest := make([]*task, 0, len(q.tasks))
	for id, t := range q.tasks {
		if !emitted[id] {
			rest = append(rest, t)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	order = append(order, rest...)
	var recs []walRecord
	for _, t := range order {
		recs = append(recs, walRecord{Op: opEnqueue, Task: &t.Task, Failures: t.failures})
		if t.leased {
			recs = append(recs, walRecord{Op: opLease, ID: t.ID, Worker: t.worker, Attempt: t.Attempt})
		}
	}
	return store.MarshalRecords(recs)
}

// Recovery returns what this queue rebuilt from its journal at
// construction (all zeros for in-memory queues and fresh logs).
func (q *Queue) Recovery() Recovery { return q.recovery }
