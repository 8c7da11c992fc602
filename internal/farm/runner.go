package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// PointArtifact names the cached per-point simulation result for a region
// under a machine config and warmup mode. The name hashes everything the
// result depends on (store.HashJSON, the store-wide convention), so a
// farm run, a later bptool -cache run and a service job over the same
// store all share the same work.
func PointArtifact(region int, mc bp.MachineConfig, warmup string) string {
	return fmt.Sprintf("point-%06d-%s-%s.json", region, store.HashJSON(mc), store.SanitizeLabel(warmup))
}

// ExecuteTask performs a leased task against a local store: open the
// trace, simulate the single point, return the result. This is the one
// compute path shared by in-process workers and cmd/bpworker, and it
// funnels into bp.SimulatePoint — the same code LocalRunner runs — so
// farmed results are bit-identical to local ones. The trace streams from
// the store's file, one region at a time.
func ExecuteTask(st *store.Store, t Task) (bp.RegionResult, error) {
	mode, err := bp.ParseWarmup(t.Warmup)
	if err != nil {
		return bp.RegionResult{}, err
	}
	f, err := st.OpenTrace(t.TraceKey)
	if err != nil {
		return bp.RegionResult{}, err
	}
	defer f.Close()
	return bp.SimulatePoint(f, t.Region, bp.TableIMachine(t.Sockets), mode)
}

// QueueRunner is a bp.PointRunner that farms each point out as a queue
// task and assembles the results as workers stream them back. Only Table
// I machines are supported: tasks describe their machine by socket count.
type QueueRunner struct {
	Q        *Queue
	TraceKey string
	// TraceID, when set, rides on every enqueued task so worker-side spans
	// link back to the submitting job (telemetry only; see Spec.TraceID).
	TraceID string
}

// RunPoints implements bp.PointRunner by enqueueing one task per distinct
// region and waiting for the fleet (or the store cache) to resolve all of
// them. The passed program is not simulated locally — workers replay
// their own copy of the trace — so p is only used for validation.
func (r QueueRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	if store.HashJSON(bp.TableIMachine(mc.Sockets)) != store.HashJSON(mc) {
		return nil, fmt.Errorf("farm: only Table I machines can be farmed (got a custom %d-socket config)", mc.Sockets)
	}
	if p.Threads() != mc.Cores() {
		return nil, fmt.Errorf("farm: program has %d threads but machine has %d cores", p.Threads(), mc.Cores())
	}
	seen := make(map[int]bool, len(regions))
	tickets := make([]*Ticket, 0, len(regions))
	for _, region := range regions {
		if seen[region] {
			continue
		}
		seen[region] = true
		tk, err := r.Q.Enqueue(Spec{
			TraceKey: r.TraceKey,
			Region:   region,
			Sockets:  mc.Sockets,
			Warmup:   mode.String(),
			TraceID:  r.TraceID,
		})
		if err != nil {
			return nil, err
		}
		tickets = append(tickets, tk)
	}
	return WaitAll(context.Background(), tickets)
}

// CachedRunner is a bp.PointRunner that serves points from the
// content-addressed store when their artifacts exist and delegates the
// misses to Inner, caching what it computes. It is how local execution
// (bptool -cache, bpserve local jobs) shares per-point work with the farm.
type CachedRunner struct {
	St       *store.Store
	TraceKey string
	Inner    bp.PointRunner

	// Hits and Misses are populated by RunPoints (not synchronized; read
	// them after it returns).
	Hits, Misses int
}

// RunPoints implements bp.PointRunner with read-through caching per point.
func (r *CachedRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	out := make(map[int]bp.RegionResult, len(regions))
	var missing []int
	seen := make(map[int]bool, len(regions))
	for _, region := range regions {
		if seen[region] {
			continue
		}
		seen[region] = true
		name := PointArtifact(region, mc, mode.String())
		if b, err := r.St.GetArtifact(r.TraceKey, name); err == nil {
			var res bp.RegionResult
			if err := json.Unmarshal(b, &res); err == nil {
				out[region] = res
				r.Hits++
				continue
			}
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, err
		}
		missing = append(missing, region)
		r.Misses++
	}
	if len(missing) == 0 {
		return out, nil
	}
	computed, err := r.Inner.RunPoints(p, missing, mc, mode)
	if err != nil {
		return nil, err
	}
	for region, res := range computed {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := r.St.PutArtifact(r.TraceKey, PointArtifact(region, mc, mode.String()), b); err != nil {
			return nil, err
		}
		out[region] = res
	}
	return out, nil
}

// RunLocalWorker drives an in-process worker against the queue until ctx
// is done or the queue closes: lease, simulate via ExecuteTask over st
// (which must hold — or share — the traces), upload. It powers tests and
// benchmarks; cmd/bpworker is the same loop over the HTTP protocol.
func RunLocalWorker(ctx context.Context, q *Queue, st *store.Store, name string) {
	id := q.Register(name)
	idle := q.cfg.SweepEvery / 2
	if idle <= 0 || idle > 50*time.Millisecond {
		idle = 50 * time.Millisecond
	}
	for ctx.Err() == nil {
		tasks := q.Lease(id, 1)
		if len(tasks) == 0 {
			q.mu.Lock()
			closed := q.closed
			q.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(idle):
			}
			continue
		}
		for _, t := range tasks {
			// The span carries the enqueuing job's trace ID, so the queue's
			// WorkerSpans recorder answers "which worker ran this job's
			// points, and how long did each stage take".
			span := obs.NewSpan(t.TraceID, "farm-task")
			span.SetAttr("task", t.ID)
			span.SetAttr("worker", id)
			stop := span.StartStage("simulate")
			res, err := ExecuteTask(st, t)
			stop()
			if err != nil {
				q.Fail(id, t.ID, err.Error())
				span.SetAttr("error", err.Error())
				span.Finish()
				q.workerSpans.Record(span.Data())
				continue
			}
			b, err := json.Marshal(res)
			if err != nil {
				q.Fail(id, t.ID, err.Error())
				continue
			}
			stop = span.StartStage("upload")
			q.Complete(id, t.ID, b)
			stop()
			span.Finish()
			q.workerSpans.Record(span.Data())
		}
	}
}
