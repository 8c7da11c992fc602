package service

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"barrierpoint/internal/store"
)

// FuzzJobJournalReplay hammers job-journal recovery with arbitrary bytes.
// Replay guards the coordinator's restart path, so it must never panic
// and must always fold into a state that compaction round-trips: after
// one canonicalizing replay∘compact round, replay∘compact is the
// identity. A journal this fails for would mutate job state on every
// restart. Every replay runs through store.RecoverWAL, the one-pass open
// EnableJournal uses, and every compacted log is written by
// store.WAL.Rewrite. Seeds are the previous release's journal
// (testdata/jobs.wal, torn tail included) and damaged variants of it.
func FuzzJobJournalReplay(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "jobs.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, off := range []int{0, 4, 9, len(seed) - 1} {
		b := append([]byte(nil), seed...)
		b[off] ^= 0x41
		f.Add(b)
	}
	// One scratch directory per fuzzing process, its files rewritten by
	// each input (the fuzz function never runs concurrently with itself).
	dir := f.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, ws := replayJournalFile(t, path)
		if ws.Bytes < 0 || ws.Bytes > int64(len(data)) || ws.Dropped != int64(len(data))-ws.Bytes {
			t.Fatalf("intact prefix %d, dropped %d of %d bytes", ws.Bytes, ws.Dropped, len(data))
		}
		if len(s.jobs) > ws.Replayed || len(s.order) != len(s.jobs) {
			t.Fatalf("%d jobs (%d ordered) from %d records", len(s.jobs), len(s.order), ws.Replayed)
		}

		c1 := encodeJournal(t, s)
		s2, _ := replayJournalFile(t, writeCompacted(t, dir, c1))
		c2 := encodeJournal(t, s2)
		s3, _ := replayJournalFile(t, writeCompacted(t, dir, c2))
		if c3 := encodeJournal(t, s3); !reflect.DeepEqual(c2, c3) {
			t.Fatalf("compaction not a fixpoint:\n round 2: %q\n round 3: %q", c2, c3)
		}
		if len(s2.jobs) != len(s.jobs) || len(s3.jobs) != len(s2.jobs) {
			t.Fatalf("job count drifted across compaction rounds: %d, %d, %d",
				len(s.jobs), len(s2.jobs), len(s3.jobs))
		}
	})
}

// replayJournalFile folds the journal at path through store.RecoverWAL.
func replayJournalFile(t *testing.T, path string) (*journalState, store.WALStats) {
	t.Helper()
	s := newJournalState()
	w, err := store.RecoverWAL(path, s.apply)
	if err != nil {
		t.Fatalf("replay returned error %v (must fold any byte stream)", err)
	}
	defer w.Close()
	return s, w.Stats()
}

// writeCompacted writes payloads as dir's compacted journal through
// store.WAL.Rewrite, the compaction primitive, and returns its path.
func writeCompacted(t *testing.T, dir string, payloads [][]byte) string {
	t.Helper()
	path := filepath.Join(dir, "compacted.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Rewrite(payloads); err != nil {
		t.Fatal(err)
	}
	return path
}

// encodeJournal serializes a replayed state the way journalSnapshotLocked
// serializes the retained jobs: per job in submit order a submit record,
// plus its terminal record where one applies. (The folded state keeps no
// config hash, so submit records carry none.)
func encodeJournal(t *testing.T, s *journalState) [][]byte {
	t.Helper()
	var recs []journalRecord
	for _, id := range s.order {
		j := s.jobs[id]
		req := j.req
		recs = append(recs, journalRecord{Op: jopSubmit, ID: j.id, Req: &req, TraceID: j.traceID, CreatedNs: j.createdNs})
		switch {
		case j.terminal && j.failed:
			recs = append(recs, journalRecord{Op: jopFailed, ID: j.id, Error: j.errMsg, FinishedNs: j.finishNs})
		case j.terminal:
			recs = append(recs, journalRecord{Op: jopDone, ID: j.id, Artifact: j.artifact, Cached: j.cached, FinishedNs: j.finishNs})
		}
	}
	out, err := store.MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
