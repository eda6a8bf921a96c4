package core_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"mie/internal/bin"
	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/experiments"
	"mie/internal/leakcheck"
	"mie/internal/wal"
	"mie/internal/wire"
)

// TestReplicatedLogIsTheLeaderLog follows a fixed trace — inserts, an
// overwrite, removes, and the remove of an id that was never stored — from a
// network client through the router and the leader to the follower, and then
// reads both nodes' logs: the follower's record sequence is the leader's byte
// for byte, and each record is one kind byte plus the UpdateReq / RemoveReq
// frame body after its RepoID — the bytes the client sent.
func TestReplicatedLogIsTheLeaderLog(t *testing.T) {
	leakcheck.Check(t)
	const repoID, nodes = "identity", 2
	base := t.TempDir()
	cl, err := experiments.StartCluster(base, nodes, wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	conn, err := client.Dial(cl.RouterAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	ctx := context.Background()
	caughtUp := func() {
		t.Helper()
		if err := cl.WaitCaughtUp([]string{repoID}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var master, dataKey crypto.Key
	master[0], dataKey[0] = 1, 2
	cc, err := core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: master}})
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(id, text string) *core.Update {
		t.Helper()
		up, err := cc.PrepareUpdate(&core.Object{ID: id, Owner: "u", Text: text}, dataKey)
		if err != nil {
			t.Fatal(err)
		}
		return up
	}
	// frameBody is what follows the RepoID in a request's frame body.
	frameBody := func(kind string, req any) []byte {
		t.Helper()
		env, err := wire.NewEnvelope(kind, "", 0, 0, req)
		if err != nil {
			t.Fatal(err)
		}
		return env.Data[len(bin.AppendString(nil, repoID)):]
	}
	var want [][]byte // the records both logs must hold, in order
	remove := func(id string) {
		t.Helper()
		want = append(want, append([]byte{core.WALRemove}, frameBody(wire.KindRemove, wire.RemoveReq{RepoID: repoID, ObjectID: id})...))
		if err := conn.Remove(ctx, repoID, id); err != nil {
			t.Fatal(err)
		}
	}
	mustUpdate := func(up *core.Update) {
		t.Helper()
		want = append(want, append([]byte{core.WALUpdate}, frameBody(wire.KindUpdate, wire.UpdateReq{RepoID: repoID, Update: *up})...))
		if err := conn.Update(ctx, repoID, up); err != nil {
			t.Fatal(err)
		}
	}

	// A trained repository (a trained one indexes on update) whose two logs
	// start empty: the train re-syncs the follower through a snapshot, which
	// resets its log, and a save rotates the leader's.
	if err := conn.CreateRepository(ctx, repoID, wire.RepoOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s0", "s1", "s2"} {
		if err := conn.Update(ctx, repoID, prepare(id, "seed document "+id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Train(ctx, repoID); err != nil {
		t.Fatal(err)
	}
	caughtUp()
	leaderDir, followerDir := filepath.Join(base, "node-0"), filepath.Join(base, "node-1")
	if err := core.SaveService(cl.NodeService(0), leaderDir); err != nil {
		t.Fatal(err)
	}

	a1, a2 := prepare("a", "first version of a"), prepare("a", "second version of a")
	mustUpdate(a1)
	mustUpdate(prepare("b", "b comes and goes"))
	mustUpdate(a2)
	remove("b")
	if err := conn.Remove(ctx, repoID, "never-stored"); err != nil { // unknown id: acknowledged, not logged
		t.Fatal(err)
	}
	mustUpdate(prepare("d", "d arrives last"))
	caughtUp()

	leader, follower := core.LogPayloads(t, leaderDir, repoID), core.LogPayloads(t, followerDir, repoID)
	for name, got := range map[string][][]byte{"leader": leader, "follower": follower} {
		if len(got) != len(want) {
			t.Fatalf("%s log holds %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s record %d is not the kind byte plus the request's frame body\n got %x\nwant %x", name, i+1, got[i], want[i])
			}
		}
	}
	for node := 0; node < nodes; node++ {
		repo, release, err := cl.NodeService(node).Acquire(repoID)
		if err != nil {
			t.Fatal(err)
		}
		if ct, _, err := repo.Get("a"); err != nil || !bytes.Equal(ct, a2.Ciphertext) {
			t.Errorf("node %d: object a is not its second version (err %v)", node, err)
		}
		if repo.Size() != 5 { // s0 s1 s2 a d
			t.Errorf("node %d holds %d objects, want 5", node, repo.Size())
		}
		release()
	}
}
