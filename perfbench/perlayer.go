package main

import (
	"fmt"
	"math"
)

// health is the part of bpserve's /healthz the traced run reads: the job
// journal's append count (not exported on /metrics).
type health struct {
	Journal struct {
		Appends float64 `json:"appends"`
	} `json:"job_journal"`
}

// fetchHealth reads /healthz.
func (b *bench) fetchHealth() (health, error) {
	var h health
	err := b.cl.do("GET", "/healthz", nil, &h)
	return h, err
}

// layerMetrics computes the per-layer metrics of a traced run from three
// sources: the in-process pass's spans and counts, the job spans bpserve
// returned with each job, and the /metrics and /healthz deltas across the
// timed phase.
func (b *bench) layerMetrics(w workload, reqs []request, sc phaseScrape) (map[string]float64, error) {
	stats, err := w.layers(b, reqs)
	if err != nil {
		return nil, err
	}
	self := selfTimes(b.tr.closed())
	med := func(name string) float64 {
		if v := self[name]; len(v) > 0 {
			return median(v)
		}
		return 0
	}

	var all []float64
	var queueWait, unattributed, roundMs []float64
	var jobs, points, rounds, allRounds float64
	for i, r := range reqs {
		if r.outcome != outcomeOK {
			continue
		}
		all = append(all, r.latencyMs)
		allRounds += float64(r.rounds)
		if i < w.minRequests() {
			points += float64(r.points)
			rounds += float64(r.rounds)
		}
		for _, j := range r.jobs {
			jobs++
			queueWait = append(queueWait, msBetween(j.Created, j.Started))
			if j.Span == nil {
				continue
			}
			unattributed = append(unattributed, float64(j.Span.DurationNs-j.Span.StageSumNs())/1e6)
			for _, st := range j.Span.Stages {
				if st.Name == "adaptive-round" && st.Count > 0 {
					roundMs = append(roundMs, float64(st.DurationNs)/float64(st.Count)/1e6)
				}
			}
		}
	}
	orZero := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	n := float64(min(len(reqs), w.minRequests()))

	srv, wrk := sc.srv, sc.wrk
	hits, computed := srv.delta("bp_profile_cache_hits_total"), srv.delta("bp_profile_computed_total")
	replayHits, replayMiss := srv.delta("bp_replay_cache_hits_total"), srv.delta("bp_replay_cache_misses_total")
	farmTasks := srv.delta("bp_farm_tasks_completed_total")
	taskMs := wrk.meanMs("bpworker_task_seconds", "")
	leaseWait := 0.0
	if farmTasks > 0 {
		// Enqueue → completion on the coordinator, less the worker's own
		// simulation time: lease wait plus the result RPC.
		leaseWait = srv.meanMs("bp_farm_task_seconds", "") - taskMs
	}
	digestMs := med("tracefile.digest")
	// The server's adaptive counter must agree with the rounds the
	// results report.
	if got := srv.delta("bp_adaptive_rounds_total"); got != allRounds {
		b.incorrect = append(b.incorrect, fmt.Sprintf(
			"bp_adaptive_rounds_total grew by %v over the timed phase; the results report %v rounds", got, allRounds))
	}

	m := map[string]float64{
		"tracefile.decode_ms":             med("tracefile.decode"),
		"tracefile.digest_ms":             digestMs,
		"tracefile.digest_bytes":          ratio(stats["tracefile.digest_bytes"], stats["digest_traces"]),
		"tracefile.digest_share_pct":      ratio(digestMs, orZero(median(all))) * 100,
		"tracefile.replay_hit_ratio":      ratio(replayHits, replayHits+replayMiss),
		"store.put_trace_ms":              med("store.put_trace"),
		"store.get_profile_us":            med("store.get_profile") * 1e3,
		"store.profile_reads_per_request": ratio(hits, float64(len(reqs))),
		"store.put_artifact_ms":           med("store.put_artifact"),
		"store.wal_append_ms":             srv.meanMs("bp_wal_op_seconds", `{op="append"}`),
		"store.wal_appends_per_task":      ratio(srv.delta("bp_wal_appends_total"), farmTasks),
		"profile.region_ms":               med("profile.region"),
		"profile.cache_hit_ratio":         ratio(hits, hits+computed),
		"signature.decode_us":             med("signature.decode") * 1e3,
		"signature.build_ms":              med("signature.build"),
		"cluster.select_ms":               med("cluster.select"),
		"warmup.capture_ms":               med("warmup.capture"),
		"warmup.replay_ms":                med("warmup.replay"),
		"sim.point_ms":                    med("sim.point"),
		"sim.minstr_per_s":                ratio(stats["sim_instrs"], stats["sim_ns"]/1e9) / 1e6,
		"adaptive.rounds_per_job":         ratio(rounds, n),
		"adaptive.points_per_job":         ratio(points, n),
		"adaptive.round_ms":               orZero(median(roundMs)),
		"farm.lease_wait_ms":              leaseWait,
		"farm.task_ms":                    taskMs,
		"farm.rpc_retries":                wrk.delta("bp_rpc_retries_total") + srv.delta("bp_farm_task_retries_total"),
		"farm.tasks_failed":               srv.delta("bp_farm_tasks_failed_total") + wrk.delta("bpworker_tasks_failed_total"),
		"farm.leases_expired":             srv.delta("bp_farm_leases_expired_total"),
		"service.queue_wait_ms":           orZero(median(queueWait)),
		"service.unattributed_ms":         orZero(median(unattributed)),
		"service.journal_appends_per_job": ratio(sc.journal[1]-sc.journal[0], jobs),
		"bpserve.upload_ms":               med("bpserve.upload"),
		"bpserve.submit_ms":               med("bpserve.submit"),
		"bpserve.poll_ms":                 med("bpserve.poll"),
		"bpworker.trace_fetch_ms":         wrk.meanMs("bpworker_trace_fetch_seconds", ""),
		"bench.trace_overhead_pct":        orZero(traceOverhead(reqs)),
	}
	return m, nil
}

// phaseScrape holds the server's and worker's counters, and the job
// journal's append count, around the timed phase.
type phaseScrape struct {
	srv, wrk scrape
	journal  [2]float64
}

// before and after record the counters on either side of the timed phase.
func (b *bench) scrapePhase(sc *phaseScrape, after bool) error {
	srv, wrk, err := b.scrapeAll()
	if err != nil {
		return err
	}
	h, err := b.fetchHealth()
	if err != nil {
		return err
	}
	if after {
		sc.srv.after, sc.wrk.after, sc.journal[1] = srv, wrk, h.Journal.Appends
	} else {
		sc.srv.before, sc.wrk.before, sc.journal[0] = srv, wrk, h.Journal.Appends
	}
	return nil
}

// traceOverhead compares each traced request with the untraced requests
// of the same kind (program, and signature on recluster) and returns the
// median relative slowdown in percent. Matching by kind keeps the
// program mix of the traced and untraced blocks out of the comparison.
func traceOverhead(reqs []request) float64 {
	kind := func(r request) string { return r.in.Program + "/" + r.cfg.Signature }
	untraced := make(map[string][]float64)
	for _, r := range reqs {
		if r.outcome == outcomeOK && !r.traced {
			untraced[kind(r)] = append(untraced[kind(r)], r.latencyMs)
		}
	}
	var slow []float64
	for _, r := range reqs {
		if u := untraced[kind(r)]; r.outcome == outcomeOK && r.traced && len(u) > 0 {
			slow = append(slow, (r.latencyMs/median(u)-1)*100)
		}
	}
	return median(slow)
}
