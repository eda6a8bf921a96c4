// Package wal is an append-only write-ahead log for repository mutations:
// length-prefixed, CRC32-checksummed records with a configurable sync policy
// and a recovery reader that tolerates torn tails.
//
// The log is the durability half of the server's snapshot+WAL persistence:
// every acknowledged mutation is appended (and, under SyncAlways, fsynced)
// before the caller acknowledges it, and a periodic snapshot rotates the log
// back to empty. After a crash, recovery replays the snapshot and then every
// complete record of the log; a partial record at the tail — the signature
// of dying mid-write — is silently truncated, never an error. A record that
// fails its checksum, or whose length prefix runs past the end of the file,
// ends recovery at the last byte of the preceding record: the log's valid
// prefix is exactly what the process had written completely.
//
// The package is stdlib-only and deals in opaque []byte records; callers
// own the payload encoding. All file I/O goes through the File interface so
// fault-injection tests (internal/wal/walfault) can script failures, short
// writes and power cuts at exact byte offsets.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// logMagic identifies a WAL file; it is written when the log is created and
// verified on every open.
const logMagic = "MIEWAL1\n"

// HeaderSize is the length of the file header (the magic string).
const HeaderSize = len(logMagic)

// recHeaderSize is the per-record header: uint32 payload length plus uint32
// CRC32 (IEEE) of the payload, both big-endian.
const recHeaderSize = 8

// MaxRecordSize bounds a single record's payload. A length prefix beyond it
// is treated as corruption (recovery truncates there) and Append rejects it,
// so a flipped bit in a length field can never make recovery attempt a
// multi-gigabyte allocation.
const MaxRecordSize = 1 << 28

// Common errors.
var (
	// ErrNotWAL is returned when opening a file whose header is present but
	// not a WAL magic — the caller is pointing the log at someone else's
	// data, which must never be silently clobbered.
	ErrNotWAL = errors.New("wal: not a write-ahead log")
	// ErrRecordTooLarge is returned by Append for payloads over
	// MaxRecordSize (or empty payloads, which the format reserves).
	ErrRecordTooLarge = errors.New("wal: record size out of range")
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Append returns: an acknowledged append
	// survives kill -9 and power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most every syncInterval (a background flusher
	// covers idle periods), bounding the loss window to the interval.
	SyncInterval
	// SyncNever issues no explicit fsyncs between rotations; durability
	// rides on the OS page cache (process crashes lose nothing, power loss
	// may lose everything since the last snapshot).
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and "never"
// to their policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// File is the slice of *os.File the log needs. Production logs sit on real
// files; fault-injection tests substitute scripted in-memory files.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Observer receives low-level log events; implementations must be cheap and
// concurrency-safe. It exists so the metrics layer can count appends and
// fsyncs without coupling this package to the metrics registry.
type Observer interface {
	// Appended reports one record of n encoded bytes (header included)
	// reaching the file.
	Appended(n int)
	// Synced reports one fsync issued.
	Synced()
}

// syncInterval is the flush period under SyncInterval.
const syncInterval = 100 * time.Millisecond

// Options configures a log.
type Options struct {
	// Sync is the append durability policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// OpenFile overrides how the backing file is opened (fault-injection
	// tests); nil means os.OpenFile with O_RDWR|O_CREATE.
	OpenFile func(path string) (File, error)
	// Observer, when non-nil, is notified of appends and fsyncs.
	Observer Observer
}

// Recovery summarizes what Open found in an existing log.
type Recovery struct {
	// Records is the number of complete records recovered.
	Records int
	// ValidBytes is the length of the log's valid prefix (header included);
	// the file is truncated to it.
	ValidBytes int64
	// DroppedBytes is how much torn or corrupt tail was discarded.
	DroppedBytes int64
}

// Log is an append-only record log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	path string
	obs  Observer

	mu       sync.Mutex
	f        File
	size     int64 // end offset of the valid log
	dirty    bool  // bytes appended since the last fsync
	err      error // sticky: set when the log can no longer guarantee its contract
	policy   SyncPolicy
	lastSync time.Time

	stopFlush chan struct{}
	flushDone chan struct{}
}

// nopObserver backs nil Options.Observer.
type nopObserver struct{}

func (nopObserver) Appended(int) {}
func (nopObserver) Synced()      {}

// Open opens (or creates) the log at path and recovers its contents: replay
// is called once per complete record in append order (nil skips them), the
// file is truncated after the last complete record, and the returned log
// appends from there. A missing or shorter-than-header file is a fresh log;
// a present header that is not the WAL magic is ErrNotWAL. An error from
// replay aborts the open and is returned verbatim (wrapped).
func Open(path string, opts Options, replay func(rec []byte) error) (*Log, Recovery, error) {
	openFile := opts.OpenFile
	if openFile == nil {
		openFile = func(p string) (File, error) {
			return os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
		}
	}
	f, err := openFile(path)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, Recovery{}, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	rec, err := ReadLog(bufio.NewReader(io.LimitReader(f, size)), replay)
	if err != nil {
		_ = f.Close()
		return nil, Recovery{}, fmt.Errorf("wal: recover %s: %w", path, err)
	}
	rec.DroppedBytes = size - rec.ValidBytes

	l := &Log{
		path:     path,
		obs:      opts.Observer,
		f:        f,
		policy:   opts.Sync,
		lastSync: time.Now(),
	}
	if l.obs == nil {
		l.obs = nopObserver{}
	}
	if rec.ValidBytes < int64(HeaderSize) {
		// Fresh log (or a creation torn mid-header): write the header.
		if err := l.initHeader(); err != nil {
			_ = f.Close()
			return nil, Recovery{}, err
		}
		rec.ValidBytes = int64(HeaderSize)
		rec.DroppedBytes = size // everything pre-existing was torn header
	} else if rec.ValidBytes < size {
		// Torn or corrupt tail: cut it off so appends continue from the
		// last complete record.
		if err := f.Truncate(rec.ValidBytes); err != nil {
			_ = f.Close()
			return nil, Recovery{}, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, Recovery{}, fmt.Errorf("wal: sync %s: %w", path, err)
		}
		l.obs.Synced()
	}
	if _, err := f.Seek(rec.ValidBytes, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, Recovery{}, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l.size = rec.ValidBytes
	if l.policy == SyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// initHeader (re)writes the magic at the start of an empty log.
func (l *Log) initHeader() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: init %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: init %s: %w", l.path, err)
	}
	if _, err := io.WriteString(l.f, logMagic); err != nil {
		return fmt.Errorf("wal: init %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: init %s: %w", l.path, err)
	}
	l.obs.Synced()
	return nil
}

// ReadLog scans one complete log image (header plus records) from r,
// calling fn (if non-nil) for each complete record in order. It stops —
// without error — at the first torn or corrupt record: ValidBytes reports
// the prefix up to the last complete record, which is where recovery
// truncates. DroppedBytes counts only bytes consumed past the valid prefix;
// Open replaces it with the exact file remainder. The only errors are
// ErrNotWAL (full header present, wrong magic) and an error returned by fn.
func ReadLog(r io.Reader, fn func(rec []byte) error) (Recovery, error) {
	var rec Recovery
	header := make([]byte, HeaderSize)
	n, err := io.ReadFull(r, header)
	if err != nil {
		// Shorter than a header: a log truncated mid-creation, i.e. empty.
		rec.DroppedBytes = int64(n)
		return rec, nil
	}
	if string(header) != logMagic {
		return rec, ErrNotWAL
	}
	rec.ValidBytes = int64(HeaderSize)
	var hdr [recHeaderSize]byte
	for {
		n, err := io.ReadFull(r, hdr[:])
		if err != nil {
			rec.DroppedBytes += int64(n)
			return rec, nil // torn mid-header
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordSize {
			rec.DroppedBytes += recHeaderSize
			return rec, nil // corrupt length prefix
		}
		payload := make([]byte, length)
		n, err = io.ReadFull(r, payload)
		if err != nil {
			rec.DroppedBytes += recHeaderSize + int64(n)
			return rec, nil // torn mid-payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			rec.DroppedBytes += recHeaderSize + int64(length)
			return rec, nil // corrupt payload
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return rec, err
			}
		}
		rec.Records++
		rec.ValidBytes += recHeaderSize + int64(length)
	}
}

// EncodeRecord returns the on-disk form of one record: length prefix, CRC32
// and payload. Exposed for tests and fuzzing; Append uses it internally.
func EncodeRecord(payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderSize:], payload)
	return buf
}

// Append writes one record and applies the sync policy; when it returns nil
// under SyncAlways, the record is on stable storage. A failed or short
// write is repaired by truncating the file back to the previous record so
// the log stays appendable; if the repair — or any fsync — fails, the log
// can no longer tell what is durable and poisons itself: every later Append
// returns the sticky error until a successful Reset.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	buf := EncodeRecord(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	n, err := l.f.Write(buf)
	if err != nil || n < len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Cut the partial record back out so the next append starts on a
		// record boundary; a crash before the repair persists leaves a torn
		// tail, which recovery truncates the same way.
		if terr := l.truncateTo(l.size); terr != nil {
			l.err = fmt.Errorf("wal: unrepairable after failed append: %w", terr)
		}
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	l.dirty = true
	l.obs.Appended(len(buf))
	switch l.policy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= syncInterval {
			return l.syncLocked()
		}
	}
	return nil
}

// truncateTo cuts the file to size and repositions the write offset.
func (l *Log) truncateTo(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	_, err := l.f.Seek(size, io.SeekStart)
	return err
}

// syncLocked fsyncs if dirty. An fsync failure leaves the durable state
// unknowable (the kernel may have dropped the dirty pages), so it poisons
// the log rather than let a later "successful" append imply the earlier
// record is durable too.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync %s: %w", l.path, err)
		return l.err
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.obs.Synced()
	return nil
}

// flushLoop is the SyncInterval background flusher: it bounds the loss
// window even when appends stop arriving.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	ticker := time.NewTicker(syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.mu.Lock()
			if l.err == nil {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.stopFlush:
			return
		}
	}
}

// Reset rotates the log: every record is dropped (the caller has persisted
// their effects elsewhere, e.g. in a snapshot) and the file shrinks back to
// its header. A successful Reset also clears a poisoned log — the snapshot
// the caller just wrote supersedes whatever durability was in doubt.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.truncateTo(int64(HeaderSize)); err != nil {
		l.err = fmt.Errorf("wal: reset %s: %w", l.path, err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: reset %s: %w", l.path, err)
		return l.err
	}
	l.obs.Synced()
	l.size = int64(HeaderSize)
	l.dirty = false
	l.lastSync = time.Now()
	l.err = nil
	return nil
}

// Close flushes (best effort) and closes the backing file. The log is
// unusable afterwards.
func (l *Log) Close() error {
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
		l.stopFlush = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if l.err == nil && l.policy != SyncNever {
		firstErr = l.syncLocked()
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if l.err == nil {
		l.err = errors.New("wal: log closed")
	}
	return firstErr
}
