package farm

// White-box tests of the queue's write-ahead log: exact recovery of
// pending and in-flight tasks, crash points injected between every WAL
// append and its in-memory apply (the crashHook seam), the
// artifact-already-stored race, and compaction as a replay fixpoint.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// fakeTraceKey is a well-formed content key for queue-level tests that
// never execute tasks (nothing in Enqueue/Lease/Fail opens the trace).
const fakeTraceKey = "abababababababababababababababababababababababababababababababab"

func testConfig() Config {
	return Config{LeaseTTL: time.Minute, MaxAttempts: 3, SweepEvery: time.Hour}
}

func newDurable(t testing.TB, dir string) (*Queue, Recovery, *store.Store, string) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store", "farm.wal")
	q, rec, err := NewDurableQueue(st, testConfig(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	return q, rec, st, walPath
}

func reopenDurable(t testing.TB, st *store.Store, walPath string) (*Queue, Recovery) {
	t.Helper()
	q, rec, err := NewDurableQueue(st, testConfig(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	return q, rec
}

// crash abandons the queue the way kill -9 would: the sweeper stops and
// the WAL file handle drops, but — unlike Close — nothing is journaled,
// no tickets resolve, and no in-memory cleanup runs.
func crash(q *Queue) {
	q.mu.Lock()
	q.closed = true
	if q.wal != nil {
		q.wal.Close()
	}
	close(q.stopSweep)
	q.mu.Unlock()
	<-q.sweepDone
}

func spec(region int) Spec {
	return Spec{TraceKey: fakeTraceKey, Region: region, Sockets: 1, Warmup: "cold"}
}

func resultJSON(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(bp.RegionResult{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDurableQueueRecoversPendingAndInFlight(t *testing.T) {
	q1, rec, st, walPath := newDurable(t, t.TempDir())
	if rec != (Recovery{}) {
		t.Fatalf("fresh queue reported recovery %+v", rec)
	}
	for r := 0; r < 3; r++ {
		if _, err := q1.Enqueue(spec(r)); err != nil {
			t.Fatal(err)
		}
	}
	leased := q1.Lease("w1", 1)
	if len(leased) != 1 || leased[0].Region != 0 || leased[0].Attempt != 1 {
		t.Fatalf("lease = %+v, want region 0 attempt 1", leased)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.Pending != 2 || rec.Requeued != 1 || rec.StoreHits != 0 {
		t.Fatalf("recovery = %+v, want 2 pending, 1 requeued", rec)
	}
	if rec.Records != 4 { // 3 enqueues + 1 lease
		t.Errorf("recovery replayed %d records, want 4", rec.Records)
	}

	// Pending tasks come back first in their original order, then the
	// interrupted lease; the recovered lease keeps its attempt count, so
	// re-leasing it is attempt 2.
	got := q2.Lease("w2", 10)
	if len(got) != 3 {
		t.Fatalf("recovered queue leased %d tasks, want 3", len(got))
	}
	wantRegions := []int{1, 2, 0}
	wantAttempts := []int{1, 1, 2}
	for i, task := range got {
		if task.Region != wantRegions[i] || task.Attempt != wantAttempts[i] {
			t.Errorf("task %d = region %d attempt %d, want region %d attempt %d",
				i, task.Region, task.Attempt, wantRegions[i], wantAttempts[i])
		}
	}
	// The interruption is on the record for the requeued task.
	q2.mu.Lock()
	var interrupted *task
	for _, tk := range q2.tasks {
		if tk.Region == 0 {
			interrupted = tk
		}
	}
	q2.mu.Unlock()
	if interrupted == nil || len(interrupted.failures) != 1 ||
		!strings.Contains(interrupted.failures[0], "coordinator restarted") {
		t.Errorf("requeued task failures = %v, want one coordinator-restart entry", interrupted.failures)
	}

	// Task ids must not collide with the previous life's.
	tk, err := q2.Enqueue(Spec{TraceKey: fakeTraceKey, Region: 9, Sockets: 1, Warmup: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	_ = tk
	q2.mu.Lock()
	if _, clash := q2.tasks["task-000004"]; !clash {
		t.Error("fresh enqueue after recovery did not continue the id sequence (want task-000004)")
	}
	q2.mu.Unlock()
}

func TestRecoveredTicketsReattachViaDedup(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	if _, err := q1.Enqueue(spec(5)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.Pending != 1 {
		t.Fatalf("recovery = %+v, want 1 pending", rec)
	}
	// A re-submitted job enqueues the same point and must share the
	// recovered task's ticket rather than duplicating the work.
	tk, err := q2.Enqueue(spec(5))
	if err != nil {
		t.Fatal(err)
	}
	if s := q2.Stats(); s.DedupInflight != 1 || s.Enqueued != 0 {
		t.Fatalf("stats = %+v, want the enqueue to dedup onto the recovered task", s)
	}
	tasks := q2.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	if err := q2.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("re-attached ticket never resolved")
	}
	if _, err := tk.Result(); err != nil {
		t.Fatalf("ticket error: %v", err)
	}
}

func TestRecoveryResolvesStoredArtifacts(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	if _, err := q1.Enqueue(spec(2)); err != nil {
		t.Fatal(err)
	}
	tasks := q1.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	// The worker's upload reached the store, but the crash beat the
	// journal's complete record.
	if err := st.PutArtifact(fakeTraceKey, tasks[0].Artifact, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.StoreHits != 1 || rec.Pending != 0 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want exactly one store hit", rec)
	}
	// And the point is served from cache on re-enqueue.
	tk, err := q2.Enqueue(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Cached() {
		t.Error("re-enqueued point did not resolve from the store")
	}
}

// TestCrashPointPerOp injects a crash between every WAL append and its
// in-memory apply — the window where journal and memory disagree — and
// proves recovery converges to a consistent state for each record type.
func TestCrashPointPerOp(t *testing.T) {
	armHook := func(q *Queue, op string) *int {
		fired := 0
		q.crashHook = func(got string) error {
			if got == op {
				fired++
				return errors.New("injected crash after append, before apply")
			}
			return nil
		}
		return &fired
	}

	t.Run("enqueue", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		fired := armHook(q1, opEnqueue)
		if _, err := q1.Enqueue(spec(0)); err == nil {
			t.Fatal("crashed enqueue reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		if s := q1.Stats(); s.Pending != 0 || s.Enqueued != 0 {
			t.Fatalf("in-memory state after crashed enqueue: %+v, want untouched", s)
		}
		crash(q1)
		// The record was durable, so the task exists after recovery; the
		// client that saw the error re-enqueues and dedups onto it.
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Pending != 1 {
			t.Fatalf("recovery = %+v, want the journaled task back", rec)
		}
		if _, err := q2.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		if s := q2.Stats(); s.DedupInflight != 1 {
			t.Fatalf("re-enqueue did not dedup onto recovered task: %+v", s)
		}
	})

	t.Run("lease", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		fired := armHook(q1, opLease)
		if tasks := q1.Lease("w1", 1); len(tasks) != 0 {
			t.Fatalf("crashed lease handed out %d tasks", len(tasks))
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		// In memory the task went back to pending; disarm and verify it
		// leases cleanly.
		q1.crashHook = nil
		if tasks := q1.Lease("w1", 1); len(tasks) != 1 {
			t.Fatal("task lost after crashed lease")
		}
		crash(q1)
		// The journal holds two lease records; replay treats the task as
		// in-flight and requeues it.
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Requeued != 1 || rec.Pending != 0 {
			t.Fatalf("recovery = %+v, want 1 requeued", rec)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opRequeue)
		if err := q1.Fail("w1", tasks[0].ID, "simulated failure"); err == nil {
			t.Fatal("crashed fail reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		// In memory the task is still leased (the transition did not
		// apply); after recovery the journaled requeue has.
		if s := q1.Stats(); s.Leased != 1 || s.Retries != 0 {
			t.Fatalf("in-memory state after crashed requeue: %+v", s)
		}
		crash(q1)
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Pending != 1 || rec.Requeued != 0 {
			t.Fatalf("recovery = %+v, want 1 pending (requeue applied by replay)", rec)
		}
		q2.mu.Lock()
		var failures []string
		for _, tk := range q2.tasks {
			failures = tk.failures
		}
		q2.mu.Unlock()
		if len(failures) != 1 || !strings.Contains(failures[0], "simulated failure") {
			t.Errorf("recovered failure log = %v, want the journaled attempt failure", failures)
		}
	})

	t.Run("complete", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		tk, err := q1.Enqueue(spec(0))
		if err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opComplete)
		if err := q1.Complete("w1", tasks[0].ID, resultJSON(t)); err == nil {
			t.Fatal("crashed complete reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		select {
		case <-tk.Done():
			t.Fatal("ticket resolved although the apply never ran")
		default:
		}
		crash(q1)
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Completed != 1 || rec.Pending != 0 || rec.Requeued != 0 {
			t.Fatalf("recovery = %+v, want the completion applied by replay", rec)
		}
	})

	t.Run("fail", func(t *testing.T) {
		st, err := store.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(st.Root(), "farm.wal")
		cfg := testConfig()
		cfg.MaxAttempts = 1 // first failure is permanent
		q1, _, err := NewDurableQueue(st, cfg, walPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opFail)
		if err := q1.Fail("w1", tasks[0].ID, "fatal"); err == nil {
			t.Fatal("crashed fail reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		if s := q1.Stats(); s.Failed != 0 || s.Leased != 1 {
			t.Fatalf("in-memory state after crashed fail: %+v", s)
		}
		crash(q1)
		q2, rec, err := NewDurableQueue(st, cfg, walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer q2.Close()
		if rec.Failed != 1 || rec.Pending != 0 || rec.Requeued != 0 {
			t.Fatalf("recovery = %+v, want the permanent failure applied by replay", rec)
		}
	})
}

// TestCompactionFixpoint verifies that compacting and then replaying the
// journal reconstructs exactly the queue's live state, including pending
// order, attempt counts and failure logs — and that compaction is
// idempotent.
func TestCompactionFixpoint(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	for r := 0; r < 5; r++ {
		if _, err := q1.Enqueue(spec(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Build history: lease two, fail one back to pending, complete one.
	tasks := q1.Lease("w1", 2)
	if len(tasks) != 2 {
		t.Fatalf("leased %d, want 2", len(tasks))
	}
	if err := q1.Fail("w1", tasks[0].ID, "attempt failed"); err != nil {
		t.Fatal(err)
	}
	if err := q1.Complete("w1", tasks[1].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}

	snapshot := func(q *Queue) (pending []string, leased map[string]int, failures map[string]int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		leased = make(map[string]int)
		failures = make(map[string]int)
		for _, tk := range q.pending {
			if q.tasks[tk.ID] == tk && !tk.leased {
				pending = append(pending, tk.ID)
			}
		}
		for id, tk := range q.tasks {
			if tk.leased {
				leased[id] = tk.Attempt
			}
			failures[id] = len(tk.failures)
		}
		return
	}
	wantPending, wantLeased, wantFailures := snapshot(q1)

	q1.mu.Lock()
	if err := q1.compactLocked(); err != nil {
		q1.mu.Unlock()
		t.Fatal(err)
	}
	recsAfterOnce := q1.wal.Stats().Records
	if err := q1.compactLocked(); err != nil {
		q1.mu.Unlock()
		t.Fatal(err)
	}
	if q1.wal.Stats().Records != recsAfterOnce {
		q1.mu.Unlock()
		t.Fatalf("second compaction changed record count %d -> %d", recsAfterOnce, q1.wal.Stats().Records)
	}
	q1.mu.Unlock()
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.Pending+rec.Requeued != len(wantPending)+len(wantLeased) {
		t.Fatalf("recovery = %+v, want %d live tasks", rec, len(wantPending)+len(wantLeased))
	}
	gotPending, _, gotFailures := snapshot(q2)
	// Recovered order: the compacted pending order first, then requeued
	// leases.
	for i, id := range wantPending {
		if i >= len(gotPending) || gotPending[i] != id {
			t.Fatalf("pending after recovery = %v, want prefix %v", gotPending, wantPending)
		}
	}
	for id, attempt := range wantLeased {
		q2.mu.Lock()
		tk, ok := q2.tasks[id]
		q2.mu.Unlock()
		if !ok {
			t.Fatalf("leased task %s lost in compaction", id)
		}
		if tk.Attempt != attempt {
			t.Errorf("task %s attempt %d after recovery, want %d", id, tk.Attempt, attempt)
		}
	}
	for id, n := range wantFailures {
		// Requeued in-flight tasks gain one coordinator-restart entry.
		extra := 0
		if _, wasLeased := wantLeased[id]; wasLeased {
			extra = 1
		}
		if got := gotFailures[id]; got != n+extra {
			t.Errorf("task %s has %d failure entries after recovery, want %d", id, got, n+extra)
		}
	}
}

// TestCompactionTriggersUnderChurn drives enough journal records through
// a small queue to cross the compaction thresholds and checks the log
// shrinks back to the live state.
func TestCompactionTriggersUnderChurn(t *testing.T) {
	q, _, _, _ := newDurable(t, t.TempDir())
	defer q.Close()
	// Each round is enqueue+lease+complete = 3 records with ~1 live task;
	// the trigger (>= 1024 records and >= 4x live) fires during the churn.
	for i := 0; i < 400; i++ {
		if _, err := q.Enqueue(spec(i)); err != nil {
			t.Fatal(err)
		}
		tasks := q.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		if err := q.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
			t.Fatal(err)
		}
	}
	s := q.Stats()
	if s.WALCompactions < 1 {
		t.Fatalf("no compaction after %d appends (stats %+v)", s.WALAppends, s)
	}
	q.mu.Lock()
	recs := q.wal.Stats().Records
	q.mu.Unlock()
	if recs >= store.WALCompactMinRecords+store.WALCompactFactor {
		t.Errorf("journal still holds %d records after compaction", recs)
	}
}

func TestInMemoryQueueUnaffected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(st, testConfig())
	defer q.Close()
	if _, err := q.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.WALAppends != 0 || s.WALBytes != 0 {
		t.Fatalf("in-memory queue touched a WAL: %+v", s)
	}
	if q.Recovery() != (Recovery{}) {
		t.Fatalf("in-memory queue reported recovery %+v", q.Recovery())
	}
}

func TestStaleWorkerIDGetsNoLease(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	staleID := q1.Register("old-life")
	if _, err := q1.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, _ := reopenDurable(t, st, walPath)
	defer q2.Close()
	if tasks := q2.Lease(staleID, 1); len(tasks) != 0 {
		t.Fatalf("restarted queue leased %d tasks to a previous-epoch worker id", len(tasks))
	}
	// Free-form ids still auto-register and lease (test and ad-hoc
	// clients depend on it), and a fresh registration works.
	if tasks := q2.Lease("adhoc", 1); len(tasks) != 1 {
		t.Fatal("free-form worker id could not lease")
	}
	if q1.Epoch() == q2.Epoch() {
		t.Error("restarted queue kept the same epoch")
	}
}

// TestRecoversPreviousReleaseJournal is the upgrade rail: testdata/farm.wal
// was written by the previous release's queue — five tasks, of which one
// completed, one failed after three attempts, two were leased in flight
// and one was pending after two failures — and ends in a torn 18-byte
// frame. A coordinator upgraded mid-job must rebuild exactly the same
// live tasks, attempts and failure logs that release would have, and
// continue the task-ID sequence past them.
func TestRecoversPreviousReleaseJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "farm.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store", "farm.wal")
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q, rec := reopenDurable(t, st, walPath)
	defer q.Close()
	want := Recovery{Records: 21, Dropped: 18, Pending: 1, Requeued: 2, Completed: 1, Failed: 1}
	if rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}

	q.mu.Lock()
	failures := make(map[string]int)
	for id, tk := range q.tasks {
		failures[id] = len(tk.failures)
	}
	q.mu.Unlock()
	wantFailures := map[string]int{"task-000003": 1, "task-000004": 2, "task-000005": 2}
	if len(failures) != len(wantFailures) {
		t.Fatalf("live tasks %v, want %v", failures, wantFailures)
	}
	for id, n := range wantFailures {
		if failures[id] != n {
			t.Errorf("task %s has %d failure entries, want %d", id, failures[id], n)
		}
	}

	type leased struct {
		id              string
		region, attempt int
	}
	wantLeases := []leased{{"task-000003", 2, 2}, {"task-000005", 4, 3}, {"task-000004", 3, 3}}
	got := q.Lease("w2", 10)
	if len(got) != len(wantLeases) {
		t.Fatalf("leased %d recovered tasks, want %d", len(got), len(wantLeases))
	}
	for i, tk := range got {
		if g := (leased{tk.ID, tk.Region, tk.Attempt}); g != wantLeases[i] {
			t.Errorf("lease %d = %+v, want %+v", i, g, wantLeases[i])
		}
	}
	if _, err := q.Enqueue(spec(9)); err != nil {
		t.Fatal(err)
	}
	if next := q.Lease("w2", 1); len(next) != 1 || next[0].ID != "task-000006" {
		t.Fatalf("first task after recovery = %+v, want task-000006", next)
	}
}
