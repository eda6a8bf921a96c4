package mie

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mie/internal/dpe"
	"mie/internal/imaging"
)

func testPhoto(t *testing.T, seed int64) *Image {
	t.Helper()
	img, err := NewImage(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	return img
}

func smallClientConfig(key RepositoryKey) ClientConfig {
	return ClientConfig{
		Key:     key,
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 256, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16}},
	}
}

func smallRepoOptions() RepositoryOptions {
	return RepositoryOptions{VocabWords: 20, VocabMaxIter: 10, TreeBranch: 3, TreeHeight: 2, TreeSeed: 1}
}

func testClientKey(t *testing.T) *Client {
	t.Helper()
	key, err := NewRepositoryKey()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(smallClientConfig(key))
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// memService opens an in-memory Service via the unified constructor.
func memService(t *testing.T) *Service {
	t.Helper()
	svc, _, err := OpenService(ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestLocalRepositoryLifecycle(t *testing.T) {
	ctx := context.Background()
	client := testClientKey(t)
	svc := memService(t)
	repo, err := Open(ctx, Options{
		Service: svc,
		Client:  client,
		RepoID:  "r1",
		Create:  true,
		Repo:    smallRepoOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"d1": "solar panels renewable energy installation",
		"d2": "wind turbines renewable power grid",
		"d3": "chocolate cake recipe dessert baking",
	}
	for id, text := range docs {
		if err := repo.Add(ctx, &Object{ID: id, Owner: "u", Text: text, Image: testPhoto(t, int64(len(id)))}, dk); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Train(ctx); err != nil {
		t.Fatal(err)
	}
	hits, err := repo.Search(ctx, &Object{ID: "q", Text: "renewable energy"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	for _, h := range hits {
		if h.ObjectID == "d3" {
			t.Error("irrelevant doc ranked in top 2")
		}
	}
	ct, owner, err := repo.Get(ctx, hits[0].ObjectID)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "u" {
		t.Errorf("owner = %q", owner)
	}
	obj, err := DecryptObject(ct, dk)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != docs[hits[0].ObjectID] {
		t.Error("decrypted text mismatch")
	}
	if err := repo.Remove(ctx, hits[0].ObjectID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.Get(ctx, hits[0].ObjectID); err == nil {
		t.Error("removed object still present")
	}
	// Close on a local repository is a no-op.
	if err := repo.Close(); err != nil {
		t.Errorf("local close: %v", err)
	}
}

func TestOpenReusesExistingRepository(t *testing.T) {
	ctx := context.Background()
	client := testClientKey(t)
	svc := memService(t)
	a, err := Open(ctx, Options{Service: svc, Client: client, RepoID: "shared", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(ctx, &Object{ID: "x", Text: "hello world content"}, dk); err != nil {
		t.Fatal(err)
	}
	// A second create with identical options reuses the repository without
	// the conflict sentinel; the handle must see the same data.
	b, err := Open(ctx, Options{Service: svc, Client: client, RepoID: "shared", Create: true, Repo: smallRepoOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get(ctx, "x"); err != nil {
		t.Errorf("second handle can't see object: %v", err)
	}
	// A non-create open works too.
	c, err := Open(ctx, Options{Service: svc, Client: client, RepoID: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "x"); err != nil {
		t.Errorf("non-create handle can't see object: %v", err)
	}
}

func TestRemoteRepositoryOverTCP(t *testing.T) {
	ctx := context.Background()
	svc := memService(t)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	client := testClientKey(t)
	repo, err := Open(ctx, Options{
		Addr:   srv.Addr(),
		Client: client,
		RepoID: "remote",
		Create: true,
		Repo:   smallRepoOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := repo.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	dk, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"alpha document one", "beta document two", "gamma note three"} {
		if err := repo.Add(ctx, &Object{ID: string(rune('a' + i)), Owner: "me", Text: text}, dk); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Train(ctx); err != nil {
		t.Fatal(err)
	}
	hits, err := repo.Search(ctx, &Object{ID: "q", Text: "beta"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ObjectID != "b" {
		t.Errorf("hits = %+v", hits)
	}
	if err := repo.Remove(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.Get(ctx, "b"); err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Errorf("get removed: err = %v", err)
	}
}

func TestOpenRemoteCreateConflict(t *testing.T) {
	ctx := context.Background()
	svc := memService(t)
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := testClientKey(t)
	r1, err := Open(ctx, Options{Addr: srv.Addr(), Client: client, RepoID: "dup", Create: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r1.Close() })
	// A remote create collision reports the sentinel but still hands back a
	// usable handle.
	r2, err := Open(ctx, Options{Addr: srv.Addr(), Client: client, RepoID: "dup", Create: true})
	if !errors.Is(err, ErrRepositoryExists) {
		t.Errorf("duplicate create err = %v, want ErrRepositoryExists", err)
	}
	if r2 != nil {
		t.Cleanup(func() { _ = r2.Close() })
	}
	// Without Create the open succeeds cleanly.
	r3, err := Open(ctx, Options{Addr: srv.Addr(), Client: client, RepoID: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r3.Close() })
}
