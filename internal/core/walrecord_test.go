package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mie/internal/wal"
)

// goldenWALRecords are the two record shapes pinned under testdata/wal-v2.
func goldenWALRecords() map[string][]byte {
	return map[string][]byte{
		"update.bin": encodeWALRecord(codecUpdate(), ""),
		"remove.bin": encodeWALRecord(nil, "obj-é"),
	}
}

// TestWALRecordGolden pins the record encoding byte for byte: a log written
// today must replay on every later build. Regenerate deliberately with
//
//	go test ./internal/core -run WALRecordGolden -update
func TestWALRecordGolden(t *testing.T) {
	dir := filepath.Join("testdata", "wal-v2")
	for name, enc := range goldenWALRecords() {
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s", path)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden record (run with -update to regenerate): %v", err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: today's encoding differs from the golden bytes\n got %x\nwant %x", name, enc, want)
		}
		if isLegacyWALRecord(want) {
			t.Errorf("%s: kind byte %#x is one a gob stream can start with", name, want[0])
		}
		up, id, err := decodeWALRecord(want)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", name, err)
		}
		switch name {
		case "update.bin":
			if !reflect.DeepEqual(up, codecUpdate()) || id != up.ObjectID {
				t.Errorf("update.bin decoded to %+v / %q", up, id)
			}
			// The record is the wire's update body behind one kind byte.
			if !bytes.Equal(want[1:], codecUpdate().AppendTo(nil)) {
				t.Error("update.bin minus its kind byte is not Update.AppendTo")
			}
		case "remove.bin":
			if up != nil || id != "obj-é" {
				t.Errorf("remove.bin decoded to %+v / %q", up, id)
			}
		}
	}
}

// checkWALRecordDecode is the decoder's contract on arbitrary bytes: it
// never panics, allocates in proportion to its input, fails only with
// ErrBadWALRecord, and accepts nothing but the one canonical encoding.
func checkWALRecordDecode(t *testing.T, data []byte, what string) {
	t.Helper()
	// The same bound the wire decoders are held to (wire/kinds_test.go): the
	// constant absorbs what the runtime allocates meanwhile.
	limit := uint64(64*len(data) + 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	up, id, err := decodeWALRecord(data)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", what, len(data), got, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrBadWALRecord) {
			t.Fatalf("%s: error does not wrap ErrBadWALRecord: %v", what, err)
		}
		return
	}
	if again := encodeWALRecord(up, id); !bytes.Equal(again, data) {
		t.Fatalf("%s: a record that decodes must have exactly one encoding\n got %x\nwant %x", what, again, data)
	}
}

// FuzzWALRecordDecode feeds arbitrary bytes to the record decoder, which
// sits behind nothing but a CRC on both the recovery and the replication
// path.
//
// Run the long version with:
//
//	go test -run='^$' -fuzz=FuzzWALRecordDecode -fuzztime=30s ./internal/core
func FuzzWALRecordDecode(f *testing.F) {
	for _, name := range []string{"update.bin", "remove.bin"} {
		seed, err := os.ReadFile(filepath.Join("testdata", "wal-v2", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{walUpdate})
	f.Add([]byte{walRemove, 0})
	f.Add([]byte{0x2c, 0xff, 0x81, 3, 1, 1}) // how a gob stream starts
	f.Fuzz(func(t *testing.T, data []byte) { checkWALRecordDecode(t, data, "fuzz input") })
}

// TestWALRecordPrefixesAndFlips: every proper prefix and every single-bit
// flip of a valid record is either rejected as ErrBadWALRecord or is itself
// a canonical record — damage never decodes into something that would
// re-encode differently, and never panics.
func TestWALRecordPrefixesAndFlips(t *testing.T) {
	for name, enc := range goldenWALRecords() {
		for n := 0; n < len(enc); n++ {
			if _, _, err := decodeWALRecord(enc[:n]); !errors.Is(err, ErrBadWALRecord) {
				t.Errorf("%s: %d-byte prefix: err = %v, want ErrBadWALRecord", name, n, err)
			}
		}
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), enc...)
				flipped[i] ^= 1 << bit
				checkWALRecordDecode(t, flipped, name+" with one bit flipped")
			}
		}
	}
}

// TestBadWALRecordKeepsRepositoryDown: a record that passes the log's CRC
// but is not a mutation is a typed error naming the file and the record's
// ordinal. It is not a torn tail: nothing is truncated or skipped, and the
// repository does not come up half-recovered.
func TestBadWALRecordKeepsRepositoryDown(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	valid := encodeWALRecord(muts[0].up, "")
	for name, bad := range map[string][]byte{
		"unknown kind":    {0x90, 1, 'x'},
		"trailing bytes":  append(append([]byte(nil), valid...), 0),
		"empty object id": encodeWALRecord(&Update{Owner: "u"}, ""),
		"empty remove id": encodeWALRecord(nil, ""),
		"legacy garbage":  {0x03, 0xde, 0xad, 0xbe},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			svc, _, err := OpenService(ServiceOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			repo, err := svc.CreateRepository("cm", RepositoryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range muts[:2] {
				if err := repo.Update(m.up); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFileName("cm"))
			l, _, err := wal.Open(walPath, wal.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(bad); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(valid); err != nil { // a good record behind the bad one
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			svc2, _, err := OpenService(ServiceOptions{Dir: dir})
			if !errors.Is(err, ErrBadWALRecord) {
				t.Fatalf("open err = %v, want ErrBadWALRecord", err)
			}
			for _, want := range []string{walFileName("cm"), "record 3"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if svc2 != nil {
				if _, rerr := svc2.Repository("cm"); rerr == nil {
					t.Error("repository came up past an undecodable record")
				}
				_ = svc2.Close()
			}
			after, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("failed recovery rewrote the log: %d bytes became %d", len(before), len(after))
			}
		})
	}
}

// gobDataDir is a data directory written by the commit before ISSUE 18 — a
// trained snapshot plus a log of six gob records (three inserts, an
// overwrite and a remove of snapshotted objects, a remove of a logged
// insert) — with expect.json recording what that commit served from it. It
// sits outside internal/ and is bytes only: nothing can regenerate it.
var gobDataDir = filepath.Join("..", "..", "testdata", "gob-wal-datadir")

type gobDirExpect struct {
	Objects        []string `json:"objects"`
	WALRecords     int      `json:"wal_records"`
	RankedIDs      []string `json:"ranked_ids"`
	OverwrittenSHA string   `json:"overwritten_sha"` // sha256 of obj-c1-0's ciphertext after its logged overwrite
}

// copyGobDataDir copies the fixture into a scratch directory (recovery
// truncates and appends to the log it opens) and returns it with the
// recorded expectations.
func copyGobDataDir(t *testing.T) (string, gobDirExpect) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"legacy.snap", "legacy.wal"} {
		blob, err := os.ReadFile(filepath.Join(gobDataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(filepath.Join(gobDataDir, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want gobDirExpect
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// logPayloads reads every record payload of a repository's log.
func logPayloads(t *testing.T, dir, id string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, walFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var out [][]byte
	if _, err := wal.ReadLog(f, func(b []byte) error {
		out = append(out, append([]byte(nil), b...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALOfParentCommitReopens is the upgrade path: a directory written
// with gob records reopens to the object set and the ranking the writing
// commit recorded.
func TestWALOfParentCommitReopens(t *testing.T) {
	dir, want := copyGobDataDir(t)
	for _, p := range logPayloads(t, dir, "legacy") {
		if !isLegacyWALRecord(p) {
			t.Fatalf("fixture record starts with %#x: not a gob record", p[0])
		}
	}
	svc, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatalf("a data directory of the parent commit no longer opens: %v", err)
	}
	defer func() { _ = svc.Close() }()
	if report.ReplayedRecords != want.WALRecords || report.TornBytes != 0 {
		t.Errorf("replayed %d records with %d torn bytes, want %d and 0", report.ReplayedRecords, report.TornBytes, want.WALRecords)
	}
	repo, err := svc.Repository("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(repo.objects.Items()); !reflect.DeepEqual(got, want.Objects) {
		t.Errorf("objects %v, want %v", got, want.Objects)
	}
	ct, _, err := repo.Get("obj-c1-0")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(ct); hex.EncodeToString(sum[:]) != want.OverwrittenSHA {
		t.Error("obj-c1-0 does not hold the ciphertext its logged overwrite carried")
	}
	if got := searchIDs(t, testClient(t), repo, testObject(1, 77), 6); !reflect.DeepEqual(got, want.RankedIDs) {
		t.Errorf("ranking %v, want %v", got, want.RankedIDs)
	}
}

// TestWALMixedFormatsReplayInOrder: after an upgrade the log holds gob records
// followed by current ones. They replay as one sequence — the new records
// below undo or redo what the old ones did, so any reordering shows — and
// the first snapshot rotation leaves no gob byte on disk.
func TestWALMixedFormatsReplayInOrder(t *testing.T) {
	dir, want := copyGobDataDir(t)
	c := testClient(t)
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.Repository("legacy")
	if err != nil {
		t.Fatal(err)
	}
	reinsert, err := c.PrepareUpdate(testObject(2, 101), testDataKey(9)) // a gob record removed it
	if err != nil {
		t.Fatal(err)
	}
	overwrite, err := c.PrepareUpdate(testObject(1, 100), testDataKey(9)) // a gob record inserted it
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(reinsert); err != nil {
		t.Fatal(err)
	}
	if err := repo.Update(overwrite); err != nil {
		t.Fatal(err)
	}
	if err := repo.Remove("obj-c0-102"); err != nil { // a gob record inserted it
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	payloads := logPayloads(t, dir, "legacy")
	if len(payloads) != want.WALRecords+3 {
		t.Fatalf("log holds %d records, want %d", len(payloads), want.WALRecords+3)
	}
	for i, p := range payloads {
		if isLegacyWALRecord(p) != (i < want.WALRecords) {
			t.Fatalf("record %d starts with %#x: want %d gob records, then current ones", i+1, p[0], want.WALRecords)
		}
	}

	svc2, report, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc2.Close() }()
	if report.ReplayedRecords != len(payloads) {
		t.Errorf("replayed %d records, want %d", report.ReplayedRecords, len(payloads))
	}
	repo2, err := svc2.Repository("legacy")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"obj-c2-101"}
	for _, id := range want.Objects {
		if id != "obj-c0-102" {
			wantIDs = append(wantIDs, id)
		}
	}
	if got := repo2.objects.Items(); len(got) != len(wantIDs) {
		t.Fatalf("objects %v, want %v", sortedKeys(got), wantIDs)
	}
	for _, id := range wantIDs {
		if _, _, err := repo2.Get(id); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if ct, _, _ := repo2.Get("obj-c1-100"); !bytes.Equal(ct, overwrite.Ciphertext) {
		t.Error("obj-c1-100 holds the gob record's ciphertext, not the later overwrite's")
	}

	// Snapshot rotation empties the log; what is appended from here on is
	// current-format only.
	if err := SaveService(svc2, dir); err != nil {
		t.Fatal(err)
	}
	if got := logPayloads(t, dir, "legacy"); len(got) != 0 {
		t.Fatalf("log holds %d records after a snapshot rotation", len(got))
	}
	if err := repo2.Update(reinsert); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, walFileName("legacy")))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("MIEWAL1\n"), wal.EncodeRecord(encodeWALRecord(reinsert, ""))...); !bytes.Equal(blob, want) {
		t.Error("the rotated log is not exactly its header plus one current-format record")
	}
}
