package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"barrierpoint/internal/farm"
)

// metricValues renders the manager's registry through its expvar bridge
// and returns the flat name → value view (histograms appear as objects
// and are skipped here; read them from the raw map when needed).
func metricValues(t *testing.T, m *Manager) map[string]float64 {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(m.Metrics().Expvar().String()), &raw); err != nil {
		t.Fatalf("expvar bridge is not valid JSON: %v", err)
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		var f float64
		if err := json.Unmarshal(v, &f); err == nil {
			out[name] = f
		}
	}
	return out
}

// TestJobSpanAndStageTimings checks the coordinator half of the telemetry
// pipeline on a local estimate: the job gets a trace ID at Submit, its
// snapshot carries a finished span whose sequential stages partition the
// wall clock, and the per-job metrics advance.
func TestJobSpanAndStageTimings(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())

	snap, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceID == "" {
		t.Fatal("Submit minted no trace ID")
	}
	done, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.TraceID != snap.TraceID {
		t.Fatalf("trace ID changed across snapshots: %s vs %s", done.TraceID, snap.TraceID)
	}
	sp := done.Span
	if sp == nil {
		t.Fatal("finished job has no span")
	}
	if sp.TraceID != done.TraceID {
		t.Fatalf("span trace ID %s != job trace ID %s", sp.TraceID, done.TraceID)
	}
	if sp.End.IsZero() || sp.DurationNs <= 0 {
		t.Fatalf("span not finished: %+v", sp)
	}

	// A cold estimate profiles, clusters, binds the selection, and runs
	// the adaptive loop; every one of those stages must have been timed.
	got := make(map[string]bool)
	for _, stg := range sp.Stages {
		got[stg.Name] = true
		if stg.DurationNs < 0 {
			t.Fatalf("negative stage duration: %+v", stg)
		}
	}
	for _, want := range []string{"profile", "cluster", "bind", "simulate-points", "reconstruct"} {
		if !got[want] {
			t.Fatalf("span is missing stage %q; have %v", want, sp.Stages)
		}
	}
	// Stages partition the job's wall clock: their sum cannot exceed it.
	if sum := sp.StageSumNs(); sum > sp.DurationNs {
		t.Fatalf("stages (%d ns) exceed span wall clock (%d ns)", sum, sp.DurationNs)
	}

	// The recorder holds the span under its trace ID, and the counters
	// advanced.
	if spans := m.Spans().ByTrace(done.TraceID); len(spans) == 0 {
		t.Fatal("span recorder has nothing under the job's trace ID")
	}
	vals := metricValues(t, m)
	if vals["bp_jobs_submitted_total"] < 1 || vals["bp_jobs_done_total"] < 1 {
		t.Fatalf("job counters did not advance: %v", vals)
	}
	if vals["bp_cold_analyses_total"] < 1 {
		t.Fatalf("cold analysis counter did not advance: %v", vals)
	}
}

// TestFarmedJobTraceIDReachesWorkers is the end-to-end trace-propagation
// test: a farmed estimate's trace ID, minted at Submit, must come back on
// the worker-side farm-task spans — one trace ID across coordinator and
// fleet.
func TestFarmedJobTraceIDReachesWorkers(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	m := New(st, 2, 0)
	m.SetFarm(q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, st, "telemetry-test")
	}
	defer m.Shutdown(context.Background())

	snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm})
	if snap.Status != StatusDone {
		t.Fatalf("farmed job failed: %s", snap.Error)
	}
	if snap.TraceID == "" {
		t.Fatal("farmed job has no trace ID")
	}
	workerSpans := q.WorkerSpans().ByTrace(snap.TraceID)
	if len(workerSpans) == 0 {
		t.Fatalf("no worker spans carry the job's trace ID %s", snap.TraceID)
	}
	for _, ws := range workerSpans {
		if ws.Name != "farm-task" {
			t.Fatalf("unexpected worker span name %q", ws.Name)
		}
		var simulated bool
		for _, stg := range ws.Stages {
			if stg.Name == "simulate" && stg.DurationNs >= 0 {
				simulated = true
			}
		}
		if !simulated {
			t.Fatalf("worker span has no simulate stage: %+v", ws)
		}
	}

	// Queue instrumentation (wired by SetFarm) sees the completed tasks.
	vals := metricValues(t, m)
	if vals["bp_farm_tasks_completed_total"] < 1 {
		t.Fatalf("farm task counter did not advance: %v", vals)
	}
	if vals["bp_jobs_farmed_total"] != 1 {
		t.Fatalf("farmed jobs counter = %v, want 1", vals["bp_jobs_farmed_total"])
	}

	// The exposition text agrees with the expvar bridge for the same
	// counter (one source of truth behind two views).
	var text strings.Builder
	if err := m.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "bp_farm_tasks_completed_total") {
		t.Fatal("exposition text is missing bp_farm_tasks_completed_total")
	}
}
