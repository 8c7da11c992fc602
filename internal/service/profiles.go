package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
)

// Per-region profile cache plumbing.
//
// Region profiles (per-thread BBV + LDV + instruction counts) are keyed in
// the store by (region content digest, codec version) — see
// store.PutProfile. The digest is computed from the region's encoded chunk
// payloads (tracefile.File.RegionDigest), so a profile cached while a
// trace streamed in (Manager.IngestTrace) is found by any later analysis
// of any trace containing that region. The profile is independent of every
// signature and clustering knob (signature.Options are applied by
// signature.Build after the fact), so re-clustering with a different K,
// scale or signature variant reuses all profiles and pays only k-means.

// ProfileStats reports where an analysis's region profiles came from.
type ProfileStats struct {
	Regions  int `json:"regions"`
	Cached   int `json:"cached"`
	Computed int `json:"computed"`
}

func (s *ProfileStats) add(o ProfileStats) {
	s.Regions += o.Regions
	s.Cached += o.Cached
	s.Computed += o.Computed
}

// cachedProfile loads and decodes the profile for one region digest. A
// missing entry or an undecodable blob (foreign bytes, torn write from a
// pre-fsync store version) is a miss, never an error: the caller
// recomputes and overwrites.
func cachedProfile(st *store.Store, digest string) *signature.RegionData {
	blob, err := st.GetProfile(digest, signature.CodecVersion)
	if err != nil {
		return nil
	}
	rd, err := signature.DecodeRegionData(blob)
	if err != nil {
		return nil
	}
	return rd
}

// profileRegion profiles one region and caches the result under its
// digest, reporting whether this call created the store entry (false when
// a concurrent writer got there first). Cache-write failures fail the
// call: a store that cannot write profiles will not get further than the
// selection artifact either, and failing here keeps the ingest/analyze
// invariants ("by 201 the profiles are in the store") honest.
func profileRegion(st *store.Store, r trace.Region, threads int, digest string) (*signature.RegionData, bool, error) {
	rd := profile.Region(r, threads)
	existed, err := st.PutProfile(digest, signature.CodecVersion, signature.EncodeRegionData(rd))
	if err != nil {
		return nil, false, err
	}
	return rd, !existed, nil
}

// profilesFor collects the per-region profiles of an open trace, serving
// each region from the profile cache and computing + caching misses, in
// parallel across regions like profile.Program. Results are ordered by
// region index and bit-identical to a direct profiling pass (the codec
// round-trips exact float bits), so selections built from them match the
// cold path byte for byte.
func profilesFor(st *store.Store, f *tracefile.File) ([]*signature.RegionData, ProfileStats, error) {
	n := f.Regions()
	out := make([]*signature.RegionData, n)
	stats := ProfileStats{Regions: n}
	var cached, computed atomic.Int64

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				digest, err := f.RegionDigest(i)
				if err == nil {
					if rd := cachedProfile(st, digest); rd != nil {
						out[i] = rd
						cached.Add(1)
						continue
					}
					out[i], _, err = profileRegion(st, f.Region(i), f.Threads(), digest)
					if err == nil {
						computed.Add(1)
						continue
					}
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("service: profiling region %d: %w", i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	stats.Cached = int(cached.Load())
	stats.Computed = int(computed.Load())
	return out, stats, nil
}
