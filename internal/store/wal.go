package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"barrierpoint/internal/fault"
)

// This file is the store's write-ahead-log layer: an append-only record
// file with per-record framing and checksums, and the one journal engine
// behind the farm queue's task log (internal/farm) and the job manager's
// journal (internal/service). It owns what they share — one-pass replay
// with torn-tail truncation, fsynced appends, the compaction policy and
// rewrite, and the counters — leaving callers their record types, folds
// and live-state snapshots. It follows the same discipline as every other
// store write — atomic visibility — but where PutArtifact and PutCampaign
// rewrite whole values via temp-file+rename, a WAL appends incrementally
// and fsyncs each record, so a crash at any byte offset leaves a valid
// prefix of records followed by at most one torn frame, which open-time
// validation truncates away.
//
// # Frame format
//
// Each record is framed as
//
//	4 bytes  little-endian uint32   payload length n
//	4 bytes  little-endian uint32   CRC-32C (Castagnoli) of the payload
//	n bytes  payload
//
// Replay reads frames until the first frame that is truncated, oversized
// or fails its checksum; everything after that point is discarded. The
// payload is a JSON record whose type belongs to the journal using it.

// walMaxRecord bounds a single record's payload. Real queue records are a
// few hundred bytes; the cap keeps a corrupted length field from forcing
// a pathological allocation during replay.
const walMaxRecord = 16 << 20

// walCRC is the Castagnoli table used for record checksums.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALBroken reports that a WAL hit an append error it could not roll
// back from (the file may end in a torn frame); the log must be reopened
// (revalidating the tail) before further appends.
var ErrWALBroken = errors.New("store: wal broken by failed append")

// walFrame encodes one record into its wire frame.
func walFrame(payload []byte) []byte {
	f := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, walCRC))
	copy(f[8:], payload)
	return f
}

// ReplayFrames reads WAL frames from r, calling fn for each intact record
// in order. It returns the byte length of the valid prefix and the number
// of records delivered. Reading stops — without error — at the first
// truncated, oversized or checksum-failing frame: a torn tail is the
// expected crash artifact, not corruption worth failing over. An error
// from fn (or from r itself) aborts the replay and is returned.
func ReplayFrames(r io.Reader, fn func(rec []byte) error) (validLen int64, n int, err error) {
	br := &countReader{r: r}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return validLen, n, nil // clean EOF or torn header: stop at the valid prefix
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size > walMaxRecord {
			return validLen, n, nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return validLen, n, nil // torn payload
		}
		if crc32.Checksum(payload, walCRC) != sum {
			return validLen, n, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return validLen, n, err
			}
		}
		validLen = br.n
		n++
	}
}

// countReader tracks how many bytes have been consumed from r.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// WALHooks intercepts a WAL's write path; it exists purely as a seam for
// fault-injection tests (short writes, append errors, crash points
// between a frame hitting the file and the caller applying it). Nil
// fields mean default behavior.
type WALHooks struct {
	// WriteFrame, if set, replaces the frame write+sync. Returning an
	// error (after optionally writing part of the frame to f) simulates a
	// failed or torn append; the WAL then tries to truncate the partial
	// frame away, exactly as it would after a real short write.
	WriteFrame func(f *os.File, frame []byte) error
}

// Compaction policy shared by every journal: a log is rewritten to its
// caller's live state once it holds at least WALCompactMinRecords records
// and at least WALCompactFactor records per live entry, so a large busy
// live set is not compacted while the log is still mostly live state.
const (
	WALCompactMinRecords = 1024
	WALCompactFactor     = 4
)

// WALStats counts a WAL's activity since it was opened.
type WALStats struct {
	Replayed    int   // intact records replayed at open
	Dropped     int64 // torn-tail bytes truncated at open
	Records     int   // records in the log: replayed or last rewritten, plus appends since
	Appends     int64 // successful appends
	Errors      int64 // failed appends and rewrites
	Compactions int64 // successful rewrites
	Bytes       int64 // on-disk length of intact frames
}

// WAL is an append-only, checksummed, fsync-per-record log. Appends are
// not internally locked — callers (the farm queue, the job manager)
// serialize them under their own mutex, which also keeps the log ordered
// identically to the in-memory state transitions it journals; Stats must
// be read under that same mutex.
type WAL struct {
	path   string
	f      *os.File
	size   int64 // bytes of intact frames on disk
	hooks  *WALHooks
	broken bool
	stats  WALStats
	// observer, when set, receives the wall-clock duration of each durable
	// operation: op "append" per Append, "rewrite" per Rewrite (compaction).
	// Telemetry only; it runs after the operation's outcome is decided.
	observer func(op string, d time.Duration)
}

// SetObserver installs a per-operation timing observer (nil to remove).
// Call it before the WAL is shared across goroutines; observers must be
// safe for concurrent use if appends are.
func (w *WAL) SetObserver(fn func(op string, d time.Duration)) { w.observer = fn }

func (w *WAL) observe(op string, t0 time.Time) {
	if w.observer != nil {
		w.observer(op, time.Since(t0))
	}
}

// OpenWAL opens (creating if needed) the log at path for appending. Any
// torn frame left by a crash is truncated away first, so appends always
// start at a record boundary. The parent directory is created if missing.
func OpenWAL(path string) (*WAL, error) { return openWAL(path, nil, nil) }

// OpenWALHooked is OpenWAL with fault-injection hooks (tests only).
func OpenWALHooked(path string, hooks *WALHooks) (*WAL, error) { return openWAL(path, hooks, nil) }

// RecoverWAL is OpenWAL for a journal that rebuilds its state from the
// log. Journal records are JSON (see MarshalRecords): in the same single
// pass that validates the tail, each intact record is decoded into a T
// and handed to apply, in log order. A frame whose payload does not
// decode was written by someone else entirely; it is skipped rather than
// aborting the records around it. Stats reports how many records were
// replayed and how many torn-tail bytes were dropped.
func RecoverWAL[T any](path string, apply func(rec T)) (*WAL, error) {
	return openWAL(path, nil, func(b []byte) error {
		var rec T
		if json.Unmarshal(b, &rec) == nil {
			apply(rec)
		}
		return nil
	})
}

// MarshalRecords encodes journal records as the payloads Rewrite takes
// and RecoverWAL decodes.
func MarshalRecords[T any](recs []T) ([][]byte, error) {
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func openWAL(path string, hooks *WALHooks, fold func(rec []byte) error) (*WAL, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	valid, n, err := ReplayFrames(bufio.NewReader(f), fold)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{path: path, f: f, size: valid, hooks: hooks}
	w.stats.Replayed, w.stats.Records = n, n
	w.stats.Dropped = fi.Size() - valid
	return w, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Size returns the on-disk byte length of intact frames.
func (w *WAL) Size() int64 { return w.size }

// Append durably adds one record: the frame is written and fsynced before
// Append returns, so an acknowledged record survives an immediate crash.
// If the write fails partway, Append rolls the file back to the last
// intact frame; if even that fails the WAL is marked broken and every
// later append returns ErrWALBroken.
func (w *WAL) Append(payload []byte) error {
	if err := w.append(payload); err != nil {
		w.stats.Errors++
		return err
	}
	w.stats.Appends++
	w.stats.Records++
	return nil
}

func (w *WAL) append(payload []byte) error {
	if w.broken {
		return ErrWALBroken
	}
	// Fault seam: an injected failure surfaces before any bytes land, so
	// the log stays intact (mirrors a full disk rejecting the write).
	if err := fault.Inject("store.wal.append"); err != nil {
		return err
	}
	defer w.observe("append", time.Now())
	frame := walFrame(payload)
	err := w.writeFrame(frame)
	if err == nil {
		w.size += int64(len(frame))
		return nil
	}
	// Roll back whatever partial frame landed so the next append does not
	// bury later records behind garbage the replay would stop at.
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = true
		return fmt.Errorf("store: wal append failed (%v) and rollback failed: %w", err, ErrWALBroken)
	}
	if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.broken = true
		return fmt.Errorf("store: wal append failed (%v) and reseek failed: %w", err, ErrWALBroken)
	}
	return fmt.Errorf("store: wal append: %w", err)
}

func (w *WAL) writeFrame(frame []byte) error {
	if w.hooks != nil && w.hooks.WriteFrame != nil {
		return w.hooks.WriteFrame(w.f, frame)
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	return w.f.Sync()
}

// Rewrite atomically replaces the log's contents with the given records:
// they are framed into a temp file in the same directory, fsynced, and
// renamed over the log (the store-wide atomic-rewrite pattern), then the
// WAL continues appending to the new file. This is the compaction
// primitive — a crash at any point leaves either the old log or the new
// one, never a mix.
func (w *WAL) Rewrite(payloads [][]byte) error {
	if err := w.rewrite(payloads); err != nil {
		w.stats.Errors++
		return err
	}
	w.stats.Compactions++
	w.stats.Records = len(payloads)
	return nil
}

func (w *WAL) rewrite(payloads [][]byte) error {
	defer w.observe("rewrite", time.Now())
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var size int64
	for _, p := range payloads {
		frame := walFrame(p)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: writing wal: %w", err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	serr := syncDir(dir)
	// The rename happened, so the new file is the log either way: swap the
	// handles first, then report a directory-fsync failure. The records are
	// intact and synced in the new file (appends may continue), but the
	// rename itself is not yet known durable — a crash could resurface the
	// pre-compaction log — so the caller must not treat the compaction as
	// committed. Same "report rather than pretend durability" contract as
	// TraceWriter.Commit and writeDurable.
	old := w.f
	w.f = tmp
	w.size = size
	w.broken = false
	old.Close()
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if serr != nil {
		return fmt.Errorf("store: syncing wal dir: %w", serr)
	}
	return nil
}

// MaybeCompact applies the compaction policy (see WALCompactMinRecords):
// when the log has outgrown a live set of the given size, it is compacted
// to snapshot. Journals call it before each append, so the new record
// lands in the fresh log.
func (w *WAL) MaybeCompact(live int, snapshot func() ([][]byte, error)) error {
	if w.stats.Records < WALCompactMinRecords || w.stats.Records < WALCompactFactor*live {
		return nil
	}
	return w.Compact(snapshot)
}

// Compact rewrites the log to the live-state records snapshot returns;
// journals compact once unconditionally at startup, after replay.
func (w *WAL) Compact(snapshot func() ([][]byte, error)) error {
	payloads, err := snapshot()
	if err != nil {
		return err
	}
	return w.Rewrite(payloads)
}

// Stats returns the log's activity counters.
func (w *WAL) Stats() WALStats {
	s := w.stats
	s.Bytes = w.size
	return s
}

// Close releases the file handle. The log itself stays on disk — that is
// the point — and can be reopened with OpenWAL.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
