package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// replayAll replays the log at path into a slice of record payloads.
func replayAll(t *testing.T, path string) ([][]byte, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs [][]byte
	valid, n, err := ReplayFrames(f, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("replaying %s: %v", path, err)
	}
	if n != len(recs) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(recs))
	}
	return recs, valid
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf(`{"op":"test","n":%d}`, i))
		if i == 7 {
			rec = nil // zero-length payloads must round-trip too
		}
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, valid := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if valid != fi.Size() {
		t.Errorf("valid prefix %d != file size %d (no torn tail was written)", valid, fi.Size())
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cleanSize := w.Size()
	w.Close()

	// Simulate a crash mid-append: a partial frame after the good records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Replay sees only the valid prefix...
	recs, valid := replayAll(t, path)
	if len(recs) != 3 || valid != cleanSize {
		t.Fatalf("replay after torn tail: %d records, valid %d; want 3, %d", len(recs), valid, cleanSize)
	}
	// ...and reopening truncates the tail away so appends continue cleanly.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Size() != cleanSize {
		t.Fatalf("reopened size %d, want %d", w2.Size(), cleanSize)
	}
	if err := w2.Append([]byte("rec-3")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _ = replayAll(t, path)
	if len(recs) != 4 || string(recs[3]) != "rec-3" {
		t.Fatalf("after reopen+append: %d records (last %q), want 4 ending in rec-3", len(recs), recs[len(recs)-1])
	}
}

func TestWALReplayStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(8 + len("record-0"))

	// Flip a payload byte of record 2: replay keeps records 0-1 only.
	bad := append([]byte(nil), data...)
	bad[2*frame+8] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, valid := replayAll(t, path)
	if len(recs) != 2 || valid != 2*frame {
		t.Fatalf("checksum damage: %d records, valid %d; want 2, %d", len(recs), valid, 2*frame)
	}

	// An absurd length field must stop replay, not allocate 4 GiB.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[3*frame:], 0xfffffff0)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ = replayAll(t, path)
	if len(recs) != 3 {
		t.Fatalf("oversized length: %d records, want 3", len(recs))
	}
}

func TestRecoverWALMissingFile(t *testing.T) {
	w, err := RecoverWAL(filepath.Join(t.TempDir(), "nope.wal"), func(struct{}) {
		t.Fatal("a missing log replayed a record")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if s := w.Stats(); s != (WALStats{}) {
		t.Fatalf("missing file: %+v, want an empty log", s)
	}
}

func TestWALRewriteCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rewrite([][]byte{[]byte("live-a"), []byte("live-b")}); err != nil {
		t.Fatal(err)
	}
	// The handle keeps working against the new file.
	if err := w.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _ := replayAll(t, path)
	want := []string{"live-a", "live-b", "post"}
	if len(recs) != len(want) {
		t.Fatalf("after rewrite: %d records, want %d", len(recs), len(want))
	}
	for i, s := range want {
		if string(recs[i]) != s {
			t.Errorf("record %d = %q, want %q", i, recs[i], s)
		}
	}
	// No stray temp files.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(path) {
			t.Errorf("leftover file %s after rewrite", e.Name())
		}
	}
}

func TestRecoverWALOnePassTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append([]byte(fmt.Sprintf(`"rec-%d"`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// An intact frame that is not JSON is skipped, not fatal.
	if err := w.Append([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	cleanSize := w.Size()
	w.Close()
	torn := []byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, '"', 'r', 'e'}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var folded []string
	w, err = RecoverWAL(path, func(rec string) { folded = append(folded, rec) })
	if err != nil {
		t.Fatal(err)
	}
	want := WALStats{Replayed: 5, Dropped: int64(len(torn)), Records: 5, Bytes: cleanSize}
	if got := w.Stats(); got != want {
		t.Fatalf("stats after recovery = %+v, want %+v", got, want)
	}
	if fmt.Sprint(folded) != "[rec-0 rec-1 rec-2 rec-3]" {
		t.Fatalf("folded %q, want rec-0..rec-3 in order", folded)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != cleanSize {
		t.Fatalf("file is %d bytes after recovery, want the torn tail truncated to %d", fi.Size(), cleanSize)
	}
	if err := w.Append([]byte(`"rec-5"`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if recs, _ := replayAll(t, path); len(recs) != 6 || string(recs[5]) != `"rec-5"` {
		t.Fatalf("after recovery+append: %q, want 6 records ending in rec-5", recs)
	}

	// A missing log opens empty.
	w, err = RecoverWAL(filepath.Join(t.TempDir(), "fresh.wal"), func(string) { t.Error("fresh log replayed a record") })
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats(); got != (WALStats{}) {
		t.Fatalf("fresh log stats = %+v, want zero", got)
	}
	w.Close()
}

// TestWALCompactionThreshold pins the shared compaction policy: a log is
// compacted exactly when it reaches max(WALCompactMinRecords,
// WALCompactFactor*live) records — replayed records included — and not
// one record before.
func TestWALCompactionThreshold(t *testing.T) {
	// Skipping fsync keeps a thousand appends cheap; durability is not
	// under test here.
	noSync := &WALHooks{WriteFrame: func(f *os.File, frame []byte) error {
		_, err := f.Write(frame)
		return err
	}}
	for _, live := range []int{0, WALCompactMinRecords/WALCompactFactor + 1} {
		threshold := max(WALCompactMinRecords, WALCompactFactor*live)
		path := filepath.Join(t.TempDir(), "test.wal")
		w, err := OpenWALHooked(path, noSync)
		if err != nil {
			t.Fatal(err)
		}
		snapshots := 0
		snapshot := func() ([][]byte, error) {
			snapshots++
			return [][]byte{[]byte("live")}, nil
		}
		for i := 0; i < threshold-1; i++ {
			if err := w.MaybeCompact(live, snapshot); err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		// Reopen: the replayed records count toward the threshold.
		w, err = OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.MaybeCompact(live, snapshot); err != nil {
			t.Fatal(err)
		}
		if snapshots != 0 {
			t.Fatalf("live %d: compacted at %d records, threshold %d", live, threshold-1, threshold)
		}
		if err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := w.MaybeCompact(live, snapshot); err != nil {
			t.Fatal(err)
		}
		if s := w.Stats(); snapshots != 1 || s.Compactions != 1 || s.Records != 1 {
			t.Fatalf("live %d at threshold %d: %d snapshots, stats %+v; want one compaction to 1 record",
				live, threshold, snapshots, s)
		}
		w.Close()
	}
}

// TestWALStatsCountInjectedFaults checks the counters against appends,
// failures and compactions driven through the WALHooks seam.
func TestWALStatsCountInjectedFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	fw := &faultWriter{partialBytes: 3}
	w, err := OpenWALHooked(path, &WALHooks{WriteFrame: fw.writeFrame})
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(n int, wantErr bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Append([]byte("rec")); (err != nil) != wantErr {
				t.Fatalf("append: err %v, want error %v", err, wantErr)
			}
		}
	}
	appendN(5, false)
	fw.armed = true
	appendN(2, true) // torn writes, rolled back
	fw.armed = false
	if err := w.Rewrite([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	appendN(3, false)
	// Far below the threshold: no snapshot, no compaction.
	if err := w.MaybeCompact(0, func() ([][]byte, error) {
		t.Error("compacted below the threshold")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	fw.armed, fw.closeFile = true, true
	appendN(1, true) // rollback fails: the log breaks
	fw.armed = false
	appendN(1, true) // refused with ErrWALBroken
	want := WALStats{Records: 5, Appends: 8, Errors: 4, Compactions: 1, Bytes: w.Size()}
	if got := w.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if fw.faults != 3 {
		t.Fatalf("injected %d faults, want 3", fw.faults)
	}
}

// BenchmarkWALAppend measures one journal append as both journals issue
// it: the shared compaction check, then a framed, fsynced record. The
// live set is one record, so the log crosses WALCompactMinRecords every
// 1023 appends and the amortized rewrite is part of the per-op cost.
func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := []byte(`{"op":"lease","id":"task-000042","worker":"w-3-5f1c2a9e","attempt":1}`)
	snapshot := func() ([][]byte, error) { return [][]byte{rec}, nil }
	b.ReportAllocs()
	for b.Loop() {
		if err := w.MaybeCompact(1, snapshot); err != nil {
			b.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
