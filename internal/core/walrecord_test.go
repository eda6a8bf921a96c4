package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mie/internal/obs"
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
		if k := want[0]; k < 0x80 || k >= 0xF8 {
			t.Errorf("%s: kind byte %#x is one a gob stream can start with", name, k)
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
	again := encodeWALRecord(up, id)
	if !bytes.Equal(again, data) {
		t.Fatalf("%s: a record that decodes must have exactly one encoding\n got %x\nwant %x", what, again, data)
	}
	// The replication hub buffers every record it is handed: the encoder
	// sizes the buffer exactly, in one allocation.
	if len(again) != cap(again) {
		t.Fatalf("%s: record of %d bytes sits in a buffer of %d", what, len(again), cap(again))
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
	// What builds before ISSUE 18 logged: one standalone gob stream per
	// record. Recovery read these for one cycle; now its first byte (a gob
	// message length, below 0x80) is just not a kind.
	var gobRecord bytes.Buffer
	if err := gob.NewEncoder(&gobRecord).Encode(struct {
		Remove   bool
		ObjectID string
		Update   *Update
	}{Update: muts[0].up}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"gob record":      gobRecord.Bytes(),
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
				if err := repo.UpdateContext(context.Background(), m.up); err != nil {
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

// TestUnloadedRepositoryFilesSurviveRestarts: a repository that failed to
// load is not an orphan. Two restarts over a directory holding one healthy
// repository and one whose log carries a CRC-valid record that is not a
// mutation, each ending in the SaveService a graceful shutdown runs, leave
// the broken repository's snapshot and log byte for byte as found — so
// whoever repairs the record still has something to repair — refuse to
// create over them, and keep serving the healthy repository.
func TestUnloadedRepositoryFilesSurviveRestarts(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"healthy", "broken"} {
		repo, err := svc.CreateRepository(id, RepositoryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range muts[:2] {
			if err := repo.UpdateContext(context.Background(), m.up); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(dir, walFileName("broken")), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{0x90, 1, 'x'}); err != nil { // no such record kind
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	kept := map[string][]byte{}
	for _, name := range []string{snapshotFileName("broken"), walFileName("broken")} {
		if kept[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	for restart := 1; restart <= 2; restart++ {
		svc, _, err := OpenService(ServiceOptions{Dir: dir})
		if !errors.Is(err, ErrBadWALRecord) || svc == nil {
			t.Fatalf("restart %d: open = %v, %v; want a service and ErrBadWALRecord", restart, svc, err)
		}
		if _, err := svc.CreateRepository("broken", RepositoryOptions{}); !errors.Is(err, ErrRepoExists) {
			t.Errorf("restart %d: create over the unloaded repository: err = %v, want ErrRepoExists", restart, err)
		}
		repo, err := svc.Repository("healthy")
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if _, _, err := repo.Get(muts[0].id); err != nil {
			t.Errorf("restart %d: healthy repository lost %s: %v", restart, muts[0].id, err)
		}
		if err := repo.UpdateContext(context.Background(), muts[2+restart].up); err != nil {
			t.Errorf("restart %d: healthy repository refuses writes: %v", restart, err)
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatalf("restart %d: save: %v", restart, err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		for name, want := range kept {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("restart %d: %v", restart, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restart %d: %s changed (%d bytes became %d)", restart, name, len(want), len(got))
			}
		}
	}
}

// TestInstallSnapshotQuarantinesUnloadedFiles: a follower handed a snapshot
// for a repository that failed to load renames the broken snapshot and log
// aside — byte for byte as found — and installs the image under the id.
// Restarts and the SaveService sweep leave the quarantined files alone, and
// the installed repository serves the image's objects.
func TestInstallSnapshotQuarantinesUnloadedFiles(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("broken", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts[:2] {
		if err := repo.UpdateContext(context.Background(), m.up); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(dir, walFileName("broken")), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{0x90, 1, 'x'}); err != nil { // no such record kind
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	kept := map[string][]byte{}
	for _, name := range []string{snapshotFileName("broken"), walFileName("broken")} {
		if kept[name+".quarantined"], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	leader, err := NewRepository("broken", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.UpdateContext(context.Background(), muts[2].up); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := writeSnapshot(leader, &image); err != nil {
		t.Fatal(err)
	}

	svc, _, err = OpenService(ServiceOptions{Dir: dir})
	if !errors.Is(err, ErrBadWALRecord) || svc == nil {
		t.Fatalf("open = %v, %v; want a service and ErrBadWALRecord", svc, err)
	}
	if err := svc.InstallSnapshot("broken", image.Bytes()); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart <= 2; restart++ {
		if restart > 0 {
			if svc, _, err = OpenService(ServiceOptions{Dir: dir}); err != nil {
				t.Fatalf("restart %d: %v", restart, err)
			}
		}
		repo, err := svc.Repository("broken")
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if _, _, err := repo.Get(muts[2].id); err != nil {
			t.Errorf("restart %d: installed object %s: %v", restart, muts[2].id, err)
		}
		if _, _, err := repo.Get(muts[0].id); !errors.Is(err, ErrUnknownObject) {
			t.Errorf("restart %d: object %s of the broken repository is served: %v", restart, muts[0].id, err)
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatalf("restart %d: save: %v", restart, err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		for name, want := range kept {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("restart %d: %v", restart, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restart %d: %s is %d bytes, want the %d found", restart, name, len(got), len(want))
			}
		}
	}
}

// TestRestoreFailedGauge: service_restore_failed counts the repositories a
// start-up could not load while the healthy ones serve — 1 after opening a
// directory with one corrupt snapshot, 0 once a follower install has
// quarantined it.
func TestRestoreFailedGauge(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"healthy", "broken"} {
		if _, err := svc.CreateRepository(id, RepositoryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName("broken")), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	gauge := obs.Default().Gauge("service_restore_failed")
	svc, _, err = OpenService(ServiceOptions{Dir: dir})
	if err == nil || svc == nil {
		t.Fatalf("open = %v, %v; want a service and a load error", svc, err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	if got := gauge.Value(); got != 1 {
		t.Errorf("service_restore_failed after open = %d, want 1", got)
	}
	if _, err := svc.Repository("healthy"); err != nil {
		t.Errorf("healthy repository not served: %v", err)
	}
	leader, err := NewRepository("broken", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.UpdateContext(context.Background(), muts[0].up); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := writeSnapshot(leader, &image); err != nil {
		t.Fatal(err)
	}
	if err := svc.InstallSnapshot("broken", image.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("service_restore_failed after install = %d, want 0", got)
	}
}

// TestSecondInstallKeepsFirstQuarantine: one id fails to load, is quarantined by
// an install, fails again and is installed again. The second broken pair
// goes to "<name>.quarantined.1", so both generations survive byte for byte
// across restarts and the SaveService sweep, and the second image serves.
func TestSecondInstallKeepsFirstQuarantine(t *testing.T) {
	c := testClient(t)
	muts := crashMutations(t, c)
	dir := t.TempDir()
	svc, _, err := OpenService(ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := svc.CreateRepository("broken", RepositoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts[:2] {
		if err := repo.UpdateContext(context.Background(), m.up); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	kept := map[string][]byte{}
	// Each generation: plant a bad record, keep the broken pair's bytes
	// under the name quarantine must give them, and install a fresh image
	// holding one object.
	for gen, suffix := range []string{".quarantined", ".quarantined.1"} {
		l, _, err := wal.Open(filepath.Join(dir, walFileName("broken")), wal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte{0x90, 1, 'x'}); err != nil { // no such record kind
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{snapshotFileName("broken"), walFileName("broken")} {
			if kept[name+suffix], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		leader, err := NewRepository("broken", RepositoryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := leader.UpdateContext(context.Background(), muts[2+gen].up); err != nil {
			t.Fatal(err)
		}
		var image bytes.Buffer
		if err := writeSnapshot(leader, &image); err != nil {
			t.Fatal(err)
		}
		svc, _, err = OpenService(ServiceOptions{Dir: dir})
		if !errors.Is(err, ErrBadWALRecord) || svc == nil {
			t.Fatalf("generation %d: open = %v, %v; want a service and ErrBadWALRecord", gen, svc, err)
		}
		if err := svc.InstallSnapshot("broken", image.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for restart := 1; restart <= 2; restart++ {
		if svc, _, err = OpenService(ServiceOptions{Dir: dir}); err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		repo, err := svc.Repository("broken")
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if _, _, err := repo.Get(muts[3].id); err != nil {
			t.Errorf("restart %d: installed object %s: %v", restart, muts[3].id, err)
		}
		for _, gone := range []string{muts[0].id, muts[2].id} {
			if _, _, err := repo.Get(gone); !errors.Is(err, ErrUnknownObject) {
				t.Errorf("restart %d: object %s of a broken generation is served: %v", restart, gone, err)
			}
		}
		if err := SaveService(svc, dir); err != nil {
			t.Fatalf("restart %d: save: %v", restart, err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		for name, want := range kept {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("restart %d: %v", restart, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restart %d: %s is %d bytes, want the %d found", restart, name, len(got), len(want))
			}
		}
	}
}
