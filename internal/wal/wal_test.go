package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mie/internal/wal/walfault"
)

// collect returns a replay fn appending copies of each record to out.
func collect(out *[][]byte) func([]byte) error {
	return func(rec []byte) error {
		*out = append(*out, append([]byte(nil), rec...))
		return nil
	}
}

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i%7))))
	}
	return recs
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, rec, err := Open(path, Options{Sync: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.ValidBytes != int64(HeaderSize) {
		t.Fatalf("fresh log recovery = %+v", rec)
	}
	want := testRecords(10)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	l2, rec2, err := Open(path, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Records != len(want) || rec2.DroppedBytes != 0 {
		t.Errorf("recovery = %+v, want %d records, 0 dropped", rec2, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The reopened log keeps appending from the recovered tail.
	if err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	l3, rec3, err := Open(path, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if rec3.Records != len(want)+1 || string(got[len(got)-1]) != "after-reopen" {
		t.Errorf("after reopen append: recovery = %+v, last = %q", rec3, got[len(got)-1])
	}
}

// appendRaw tacks raw bytes onto the log file out-of-band, simulating the
// torn tail a crash mid-write leaves behind.
func appendRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailEveryByteOffset(t *testing.T) {
	// Build a clean 3-record log image, then for every truncation point
	// inside the final record verify recovery lands exactly on record 2 —
	// the wal-level half of the crash matrix.
	recs := testRecords(3)
	var img bytes.Buffer
	img.WriteString(logMagic)
	for _, r := range recs[:2] {
		img.Write(EncodeRecord(r))
	}
	prefixLen := img.Len()
	img.Write(EncodeRecord(recs[2]))
	for cut := prefixLen; cut < img.Len(); cut++ {
		path := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(path, img.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l, rec, err := Open(path, Options{}, collect(&got))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rec.Records != 2 || len(got) != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2", cut, rec.Records)
		}
		if rec.ValidBytes != int64(prefixLen) {
			t.Errorf("cut at %d: valid bytes %d, want %d", cut, rec.ValidBytes, prefixLen)
		}
		if want := int64(cut - prefixLen); rec.DroppedBytes != want {
			t.Errorf("cut at %d: dropped %d, want %d", cut, rec.DroppedBytes, want)
		}
		// The torn fragment must be gone: appends and re-recovery stay clean.
		if err := l.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again [][]byte
		l2, rec2, err := Open(path, Options{}, collect(&again))
		if err != nil || rec2.Records != 3 || string(again[2]) != "fresh" {
			t.Fatalf("cut at %d: post-truncate log corrupt: %+v %v", cut, rec2, err)
		}
		_ = l2.Close()
	}
}

func TestCorruptCRCTruncatesAtRecordStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.wal")
	l, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(3) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore2 := l.size // end of the log
	_ = l.Close()
	// Flip one payload byte of the final record.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l2, rec, err := Open(path, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != 2 {
		t.Errorf("recovered %d records past a CRC flip, want 2", rec.Records)
	}
	if rec.ValidBytes >= sizeBefore2 {
		t.Errorf("corrupt record not dropped: valid %d", rec.ValidBytes)
	}
}

func TestOversizeLengthPrefixTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "len.wal")
	l, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	// A record header claiming a payload far beyond MaxRecordSize must stop
	// recovery without attempting the allocation.
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], 0xfffffff0)
	appendRaw(t, path, hdr[:])
	var got [][]byte
	l2, rec, err := Open(path, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != 1 || string(got[0]) != "good" {
		t.Errorf("recovery = %+v, want the one good record", rec)
	}
}

func TestRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign")
	if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}, nil); !errors.Is(err, ErrNotWAL) {
		t.Errorf("err = %v, want ErrNotWAL", err)
	}
}

func TestResetRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	l, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range testRecords(5) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.size != int64(HeaderSize) {
		t.Errorf("size after reset = %d", l.size)
	}
	if err := l.Append([]byte("post-rotate")); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if _, err := l.f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if rec, err := ReadLog(l.f, collect(&got)); err != nil || rec.Records != 1 {
		t.Fatalf("after rotate: %+v %v, want exactly the post-rotate record", rec, err)
	}
}

func TestAppendRejectsOutOfRangeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sz.wal")
	l, _, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("empty: err = %v", err)
	}
}

// diskOpen adapts a walfault disk to Options.OpenFile.
func diskOpen(disk *walfault.Disk) func(string) (File, error) {
	return func(p string) (File, error) { return disk.Open(p) }
}

// faultLog opens a log over a scripted walfault disk.
func faultLog(t *testing.T, disk *walfault.Disk, path string, opts Options) *Log {
	t.Helper()
	opts.OpenFile = diskOpen(disk)
	l, _, err := Open(path, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestShortWriteIsRepaired(t *testing.T) {
	disk := walfault.NewDisk()
	// Write 1 is the header; record appends start at write 2. Fail the
	// second record halfway.
	disk.Script("log", walfault.Script{ShortWriteAt: 3})
	l := faultLog(t, disk, "log", Options{Sync: SyncAlways})
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err == nil {
		t.Fatal("short write not surfaced")
	}
	// The log repaired itself: the next append succeeds and recovery sees
	// records one and three only.
	if err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	_, rec, err := Open("log", Options{OpenFile: diskOpen(disk)}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 2 || string(got[0]) != "one" || string(got[1]) != "three" {
		t.Errorf("recovered %q, want [one three]", got)
	}
}

func TestFailedWriteIsRepaired(t *testing.T) {
	disk := walfault.NewDisk()
	disk.Script("log", walfault.Script{FailWriteAt: 2})
	l := faultLog(t, disk, "log", Options{Sync: SyncAlways})
	if err := l.Append([]byte("one")); !errors.Is(err, walfault.ErrInjected) {
		t.Fatalf("err = %v, want injected write failure", err)
	}
	if err := l.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	_, rec, err := Open("log", Options{OpenFile: diskOpen(disk)}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || string(got[0]) != "two" {
		t.Errorf("recovered %q, want [two]", got)
	}
}

func TestSyncFailurePoisonsUntilReset(t *testing.T) {
	disk := walfault.NewDisk()
	// Sync 1 covers the header; the first record append issues sync 2.
	disk.Script("log", walfault.Script{FailSyncAt: 2})
	l := faultLog(t, disk, "log", Options{Sync: SyncAlways})
	if err := l.Append([]byte("one")); !errors.Is(err, walfault.ErrInjected) {
		t.Fatalf("err = %v, want injected sync failure", err)
	}
	// After a failed fsync the durable state is unknowable: the log must
	// refuse further appends rather than imply durability it cannot have.
	if err := l.Append([]byte("two")); err == nil {
		t.Fatal("append after failed fsync must fail")
	}
	// A rotation supersedes the doubt and revives the log.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	_, rec, err := Open("log", Options{OpenFile: diskOpen(disk)}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || string(got[0]) != "three" {
		t.Errorf("recovered %q, want [three]", got)
	}
}

func TestCrashDropsUnsyncedUnderSyncNever(t *testing.T) {
	disk := walfault.NewDisk()
	l := faultLog(t, disk, "log", Options{Sync: SyncNever})
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("synced-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	err := l.syncLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append([]byte(fmt.Sprintf("lost-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	disk.File("log").Crash()

	var got [][]byte
	_, rec, err := Open("log", Options{OpenFile: diskOpen(disk)}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 3 {
		t.Fatalf("recovered %d records, want the 3 synced ones (got %q)", rec.Records, got)
	}
	for i, r := range got {
		if want := fmt.Sprintf("synced-%d", i); string(r) != want {
			t.Errorf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestObserverCounts(t *testing.T) {
	for _, tc := range []struct {
		sync      SyncPolicy
		wantSyncs int
	}{
		{SyncAlways, 5}, // header init + one fsync per append
		{SyncNever, 1},  // header init only: appends never fsync
	} {
		t.Run(tc.sync.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "obs.wal")
			var o countingObserver
			l, _, err := Open(path, Options{Sync: tc.sync, Observer: &o}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, r := range testRecords(4) {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if o.appends != 4 {
				t.Errorf("appends = %d, want 4", o.appends)
			}
			if o.syncs != tc.wantSyncs {
				t.Errorf("syncs = %d, want %d", o.syncs, tc.wantSyncs)
			}
			if o.bytes <= 0 {
				t.Errorf("bytes = %d", o.bytes)
			}
		})
	}
}

type countingObserver struct {
	appends, syncs, bytes int
}

func (o *countingObserver) Appended(n int) { o.appends++; o.bytes += n }
func (o *countingObserver) Synced()        { o.syncs++ }

// syncSignal is an Observer that reports each fsync on its channel, which
// must have room for every fsync the test provokes.
type syncSignal chan struct{}

func (syncSignal) Appended(int) {}
func (s syncSignal) Synced()    { s <- struct{}{} }

// TestSyncIntervalFlushes: under SyncInterval a record that no later append
// follows is fsynced by the background flusher within a few intervals, and
// Close fsyncs what is still dirty, so both records survive a power cut.
func TestSyncIntervalFlushes(t *testing.T) {
	disk := walfault.NewDisk()
	synced := make(syncSignal, 8)
	l := faultLog(t, disk, "log", Options{Sync: SyncInterval, Observer: synced})
	<-synced // the fresh log's header
	// appendFresh appends right after an fsync, so the append itself
	// leaves its record dirty.
	appendFresh := func(rec string) {
		t.Helper()
		l.mu.Lock()
		l.lastSync = time.Now()
		l.mu.Unlock()
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	appendFresh("flushed")
	select {
	case <-synced:
	case <-time.After(5 * syncInterval):
		t.Fatal("no fsync within five intervals of the last append")
	}
	l.mu.Lock()
	dirty := l.dirty
	l.mu.Unlock()
	if dirty {
		t.Error("the flusher's fsync left the log dirty")
	}

	appendFresh("closed")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	disk.File("log").Crash()
	var got [][]byte
	_, rec, err := Open("log", Options{OpenFile: diskOpen(disk)}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 2 || string(got[0]) != "flushed" || string(got[1]) != "closed" {
		t.Errorf("recovered %q after a power cut, want [flushed closed]", got)
	}
}
