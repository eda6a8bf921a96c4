// Command mie-client is a small CLI for driving an MIE server: generate and
// store repository keys, create repositories, add/search/fetch/remove
// multimodal objects. It demonstrates the full trust model: all encryption
// and encoding happens here; the server only ever sees ciphertexts, tokens
// and encodings.
//
// Usage:
//
//	mie-client -server host:7709 -key repo.key keygen
//	mie-client -server host:7709 -key repo.key create photos
//	mie-client -server host:7709 -key repo.key add photos obj1 notes.txt [photo.pgm]
//	mie-client -server host:7709 -key repo.key train photos
//	mie-client -server host:7709 -key repo.key search photos "beach sunset"
//	mie-client -server host:7709 -key repo.key -image query.pgm search photos "beach"
//	mie-client -server host:7709 -key repo.key get photos obj1
//	mie-client -server host:7709 -key repo.key remove photos obj1
//	mie-client -server host:7709 -key repo.key -trace search photos "beach"
//
// -trace forces a distributed trace for the command and prints the merged
// span tree — the client-side operation spans plus the server-side dispatch,
// engine and WAL spans fetched back over the wire — so one flag shows where
// a request's time went end to end.
//
// For simplicity the CLI derives per-object data keys from the repository
// key; applications wanting fine-grained access control supply their own.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"mie"
	"mie/internal/crypto"
	"mie/internal/imaging"
	"mie/internal/obs"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:7709", "MIE server address")
	keyFile := flag.String("key", "repo.key", "repository key file")
	k := flag.Int("k", 10, "number of search results")
	timeout := flag.Duration("timeout", 0, "per-command deadline, carried to the server over the wire (0 = none)")
	imagePath := flag.String("image", "", "PGM image for query-by-example searches")
	verbose := flag.Bool("v", false, "log per-operation client-side timings to stderr")
	trace := flag.Bool("trace", false, "trace the command end to end and print the merged client+server span tree to stderr")
	flag.Parse()
	start := time.Now()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err := run(ctx, *serverAddr, *keyFile, *k, *imagePath, *trace, flag.Args())
	cmd := ""
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	if *verbose {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Info("command finished", "cmd", cmd, "elapsed", time.Since(start), "ok", err == nil)
		// The client-side half of the paper's latency split: prepare/encode
		// phase spans plus per-kind network round-trip histograms.
		fmt.Fprintln(os.Stderr, "--- client metrics ---")
		_ = obs.Default().WriteMetrics(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mie-client:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, serverAddr, keyFile string, k int, imagePath string, trace bool, args []string) error {
	if len(args) == 0 {
		return errors.New("missing command (keygen|create|add|train|search|get|remove)")
	}
	cmd, args := args[0], args[1:]

	if cmd == "keygen" {
		key, err := mie.NewRepositoryKey()
		if err != nil {
			return err
		}
		if err := os.WriteFile(keyFile, []byte(hex.EncodeToString(key.Master[:])), 0o600); err != nil {
			return fmt.Errorf("write key file: %w", err)
		}
		fmt.Printf("repository key written to %s — share it with authorized users\n", keyFile)
		return nil
	}

	key, err := loadKey(keyFile)
	if err != nil {
		return err
	}
	client, err := mie.NewClient(mie.ClientConfig{Key: key})
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("%s: missing repository name", cmd)
	}
	repoID, args := args[0], args[1:]

	// -trace: force a client-originated trace so the whole command — Open's
	// RPCs included — lands in one span tree, and mark where the command
	// starts with a root span named after it.
	var at *obs.ActiveTrace
	var rootSp *obs.Span
	if trace {
		ctx, at = obs.DefaultTracer().ForceTrace(ctx)
		ctx, rootSp = obs.StartSpan(ctx, obs.Default(), "cli/"+cmd)
	}

	repo, err := mie.Open(ctx, mie.Options{
		Addr:   serverAddr,
		Client: client,
		RepoID: repoID,
		Create: cmd == "create",
	})
	if err != nil {
		return err
	}
	defer func() { _ = repo.Close() }()

	dataKey := crypto.DeriveKey(key.Master, "cli-data-key")
	err = runCommand(ctx, repo, cmd, repoID, args, k, imagePath, dataKey)
	if at != nil {
		rootSp.SetError(err)
		rootSp.End()
		printTrace(repo, at.Finish())
	}
	return err
}

func runCommand(ctx context.Context, repo mie.Repository, cmd, repoID string, args []string, k int, imagePath string, dataKey mie.DataKey) error {
	switch cmd {
	case "create":
		fmt.Printf("repository %q created\n", repoID)
		return nil
	case "add":
		if len(args) < 2 {
			return errors.New("add: need <object-id> <text-file> [image.pgm]")
		}
		raw, err := os.ReadFile(args[1])
		if err != nil {
			return fmt.Errorf("read %s: %w", args[1], err)
		}
		obj := &mie.Object{ID: args[0], Owner: os.Getenv("USER"), Text: string(raw)}
		if len(args) >= 3 {
			if obj.Image, err = loadPGM(args[2]); err != nil {
				return err
			}
		}
		if err := repo.Add(ctx, obj, dataKey); err != nil {
			return err
		}
		fmt.Printf("added %q (%d bytes of text%s)\n", args[0], len(raw), imageNote(obj))
		return nil
	case "train":
		job, err := repo.TrainAsync(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("training job %d running in the cloud...\n", job.ID())
		st, err := job.Wait(ctx)
		if err != nil {
			return err
		}
		if st.State == mie.TrainFailed {
			return fmt.Errorf("training failed: %s", st.Err)
		}
		fmt.Printf("training + indexing completed in the cloud (epoch %d)\n", st.Epoch)
		return nil
	case "search":
		if len(args) == 0 && imagePath == "" {
			return errors.New("search: need query text and/or -image")
		}
		query := &mie.Object{ID: "query", Text: strings.Join(args, " ")}
		if imagePath != "" {
			var err error
			if query.Image, err = loadPGM(imagePath); err != nil {
				return err
			}
		}
		hits, err := repo.Search(ctx, query, k)
		if err != nil {
			return err
		}
		if len(hits) == 0 {
			fmt.Println("no results")
			return nil
		}
		for i, h := range hits {
			fmt.Printf("%2d. %-24s score=%.4f owner=%s\n", i+1, h.ObjectID, h.Score, h.Owner)
		}
		return nil
	case "get":
		if len(args) < 1 {
			return errors.New("get: need <object-id>")
		}
		ct, owner, err := repo.Get(ctx, args[0])
		if err != nil {
			return err
		}
		obj, err := mie.DecryptObject(ct, dataKey)
		if err != nil {
			return fmt.Errorf("decrypt (wrong data key?): %w", err)
		}
		fmt.Printf("id=%s owner=%s\n---\n%s\n", obj.ID, owner, obj.Text)
		return nil
	case "remove":
		if len(args) < 1 {
			return errors.New("remove: need <object-id>")
		}
		if err := repo.Remove(ctx, args[0]); err != nil {
			return err
		}
		fmt.Printf("removed %q\n", args[0])
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printTrace renders the command's merged span tree to stderr: the local
// client-side fragment plus — when the repository is remote — the server-side
// fragment fetched back by trace id. The server keeps traces asynchronously
// after answering, so the fetch retries briefly.
func printTrace(repo mie.Repository, local *mie.Trace) {
	if local == nil {
		return
	}
	traces := []*mie.Trace{local}
	if tf, ok := repo.(mie.TraceFetcher); ok {
		// Fresh context: fetching the trace must not extend the trace.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for attempt := 0; attempt < 5; attempt++ {
			remote, err := tf.FetchTrace(ctx, local.TraceID)
			if err == nil {
				traces = append(traces, remote)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	fmt.Fprintf(os.Stderr, "--- trace %s ---\n%s", obs.FormatTraceID(local.TraceID), obs.RenderTraceTree(traces...))
}

func loadPGM(path string) (*mie.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open image: %w", err)
	}
	defer f.Close()
	img, err := imaging.ReadPGM(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}

func imageNote(obj *mie.Object) string {
	if obj.Image == nil {
		return ""
	}
	return fmt.Sprintf(" + %dx%d image", obj.Image.W, obj.Image.H)
}

func loadKey(path string) (mie.RepositoryKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return mie.RepositoryKey{}, fmt.Errorf("read key file (run keygen first?): %w", err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		return mie.RepositoryKey{}, fmt.Errorf("decode key file: %w", err)
	}
	k, err := crypto.KeyFromBytes(b)
	if err != nil {
		return mie.RepositoryKey{}, err
	}
	return mie.RepositoryKey{Master: k}, nil
}
