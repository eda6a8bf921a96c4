#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, build, and the full test suite under the
# race detector (the concurrent metrics registry and server counters must be
# race-clean). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# The commands must also vet clean under the static-networking build tag
# used for fully static deploy builds.
go vet -tags netgo ./cmd/...
# The paper's client runs on a phone: the whole tree must also compile and
# vet for linux/arm64 (no cgo, no network needed).
GOOS=linux GOARCH=arm64 go vet ./...
go build ./...
# The goroutine-leak sentinel (internal/leakcheck) must stay wired into the
# connection-lifecycle tests; a silent drop would let Close-path leaks pass.
for pkg in internal/server internal/client internal/replica internal/router; do
    if ! grep -q "leakcheck.Check" "$pkg"/*_test.go; then
        echo "check.sh: $pkg tests no longer use the leakcheck sentinel" >&2
        exit 1
    fi
done

# The architecture table first and whole: internal/archcheck files every
# rule of the tree under the test that enforces it — the import boundaries
# (core/index/cluster free of transport, index/cluster free of upward
# imports, the index pure memory, the scale-out tier out of the server, no
# encoding/gob on the request/WAL/replication path, the MSSE baselines on an
# allow-list of primitives, no unsafe anywhere), production frame I/O only
# through wire.FrameConn, and reachability: every package-level declaration
# outside bench/, exported or not, is reached over the call graph from the
# program's roots (main and init, bench/, package mie's exported API,
# declarations named _), bar the named seams. The full suite runs these too
# (the two type-checked rules skip under -race; without it the package takes
# about 4 s on 2 vCPU), but a fast, explicit failure here names the broken
# rule instead of burying it.
go test -count=1 ./internal/archcheck

# -shuffle surfaces inter-test ordering dependencies; -cover prints a
# per-package coverage summary so coverage regressions are visible in CI
# logs.
go test -race -shuffle=on -cover ./...

# Connection-lifecycle packages again, repeated: admission slots, mux
# teardown, follower resume and router failover are where an ordering bug
# shows up one run in fifty, and one pass of the full suite would miss it.
# Callers write their own frames through wire.FrameConn's write slot:
# TestConcurrentWritersNeverInterleave, TestWriteFailureReleasesEveryCaller,
# TestQueuedCallHonoursDeadline and TestCancelToStalledPeerReturnsAtDeadline
# (internal/client), TestHungMemberDoesNotStallRouter and
# TestCloseEndsRelayWritingToStalledMember (internal/router) ride on this
# run, with TestSocketCallsPerFrame (internal/wire), which pins one read and
# one write per frame, and TestWriteFrameEndsWithContext and
# TestTryWriteFrameIsBounded, which bound a write to a peer that has stopped
# reading.
# The replica package's catalog-image tests (a follower forgetting what its
# leader dropped, keeping what its leader cannot open, reaching an empty
# catalog's head) ride on its -count=5 run here.
# internal/wire rides along for its pooled write buffers, internal/index
# because its searches read sealed segments' live bits and the memtable
# under nothing but the facade lock, against concurrent
# Add/Remove/Seal/Compact.
go test -race -count=5 ./internal/wire ./internal/server ./internal/client ./internal/replica ./internal/router ./internal/index
# The write path's one encoding, repeated too: WAL record codec, recovery
# (crash matrix, refusal of anything that is not a record) and the leader-log = follower-log
# identity test, which runs a two-node cluster under a partition. The Train
# tests ride along: a run aborted at the install hook merging its ids back,
# the install-time re-index of writes made while a Train is held, and searches
# that loaded the untrained epoch still scanning the store as the first Train
# installs its index are again where an ordering bug shows one run in fifty.
# So are the residency latch paths — create, activation, eviction, a
# follower's snapshot install racing acquirers and drops, and the quarantine
# of a repository that failed to load — which share one claim/settle/retire
# protocol (lifecycle.go) — and a stale handle to a repository that protocol
# closed, which must refuse writes instead of acknowledging them. The log
# property (TestDurableLogHoldsExactlyTheAcknowledgedMutations: one record
# per acknowledged write, none for a refused one) matches 'Durable'; a
# restore held to the same pre-append checks is 'LoadRepositoryRefuses'.
# Every id owns its files and restores under itself after a restart
# ('RepoIDStemsSurviveRestart'), and a durable service refuses to save into
# a directory that is not its own ('SaveServiceRefusesForeignDir'). A search
# whose k is too large for the fusion depth 10·k to fit an int answers like
# any k past the repository's size, in process and over the wire
# ('TestSearchHugeK'). A query that carries one modality asks its lookup for
# k, not 10·k, and must answer exactly what depth 10·k answers
# ('LoneModalityDepth'); a winner removed between its lookup and the collect
# step is neither returned nor counted by the leakage ledger
# ('WinnerRemovedBeforeCollect'). The allocation pin of a trained search
# ('TrainedSearch' matches TestTrainedSearchAllocs) skips itself under -race.
# A query's terms reach the index as one strictly ascending list: every
# producer of that list is pinned ('QueryTermProducers'), a query holding
# another order is refused ('SearchRefusesUnsorted'), raw text terms rank
# as hex ones bit for bit ('RawTextTermsRank'), and a snapshot's hex text
# terms come back raw through a restore and a follower's install
# ('SnapshotWritesTextTerms'; a term that is not 64 hex digits is one of
# the 'LoadRepositoryRefuses' rows).
go test -race -count=5 -run 'WAL|Durable|Crash|Replicat|Train|Incremental|Epoch|Lifecycle|Activation|Evict|Install|Unloaded|Closed|LoadRepositoryRefuses|RepoIDStemsSurviveRestart|SaveServiceRefusesForeignDir|TestSearchHugeK|LoneModalityDepth|WinnerRemovedBeforeCollect|TrainedSearch|QueryTermProducers|SearchRefusesUnsorted|RawTextTermsRank|SnapshotWritesTextTerms' ./internal/core
# The leakage ledger stays bounded under 10⁵ operations, the attack's
# recorder sees exactly the logged record stream, and the restore-failed
# gauge follows a failed load through its quarantine.
go test -race -count=2 -run 'TestLeakageLedgerIsBounded|TestAttackObservesTheRecordStream|TestRestoreFailedGauge' ./internal/core ./internal/attack
# The client's Dense-DPE encode fans one object's descriptors out over
# GOMAXPROCS workers: the bit-identity tests at every width (and the metered
# client's single width) again under the race detector, where a worker that
# wrote another's slot shows, then once on one P, the one-worker path.
width='EncodeAllMatchesReference|DenseCodesPinnedAcrossCommits|FuzzDenseEncodeAll|DenseRejectsBadVectors|PrepareCodesAcrossWidths|EncodeWidthFollowsMeter|PrepareSurfacesEncodeErrors'
go test -race -count=5 -run "$width" ./internal/dpe ./internal/core
GOMAXPROCS=1 go test -count=1 -run "$width" ./internal/dpe ./internal/core

# The experiment printer still builds and runs all three schemes end to end
# — build, train, query, rank — and the §V-A attack over a durable service's
# record stream, through the binary (a few seconds; its gates are go tests
# in internal/experiments, run above).
go run ./cmd/mie-bench -scale quick -experiment table2,fig5,table3,attack
# The index microbenchmark still runs, at one core and two. No parsing, no
# threshold: speed gates live in bench/.
go test -run '^$' -bench SegmentedLookup -benchtime 100x -cpu 1,2 ./internal/index
# Likewise rank fusion at the spine's shape (two lists of depth 100 to k = 10,
# and one list).
go test -run '^$' -bench Fuse -benchtime 100x ./internal/fusion
# Likewise the trained, durable update path at the spine's engine shape
# (ingest-durable's mix, without the transport); it reports the live heap a
# mutation leaves behind beside allocations.
go test -run '^$' -bench TrainedUpdate -benchtime 100x -cpu 1,2 ./internal/core
# Likewise the frame codec's round trip over the spine's three frame shapes.
go test -run '^$' -bench FrameRoundTrip -benchtime 100x ./internal/wire
# Likewise one in-process trained search, at fanout-small's shape (text, a
# 50-document repository, k = 10) and search-large's engine shape
# (image+text).
go test -run '^$' -bench TrainedSearch -benchtime 100x -cpu 1,2 ./internal/core
# And one search round trip, client to server over loopback TCP, at
# fanout-small's shape (a text query on a trained 50-document repository).
go test -run '^$' -bench SearchRoundTrip -benchtime 100x -cpu 1,2 ./internal/client
# And the client's Dense-DPE encode at the shapes that run (one descriptor,
# one image's 29, at 2048 and 512 bits).
go test -run '^$' -bench DenseDPEEncode -benchtime 100x -cpu 1,2 ./internal/dpe
# And the whole client half of a search and an add at the spine shape
# (extraction, the fanned-out encode, text PRF, AES).
go test -run '^$' -bench 'PrepareQuery|PrepareUpdate' -benchtime 100x -cpu 1,2 ./internal/core
# And the cloud's Train kernels, both Hamming k-means, at the spine's shape
# (3000 client-encoded 2048-bit codes into 200 words).
go test -run '^$' -bench 'HammingKMeans' -benchtime 5x -cpu 1 ./internal/cluster

# Fuzz smoke over the decoders that face untrusted or crash-damaged input:
# wire frames arriving off the network (the binary frame header, every
# payload body, replication batches) and WAL bytes read back after a
# crash (the log's framing, then each record's mutation body, which is also
# what a follower is handed) must fail cleanly, never panic — and over the
# kernels that are checked against a naive reference: the segmented index
# (operation traces), rank fusion (lists, ties, k), the Dense-DPE encode (dimensions, batch sizes and
# components, non-finite ones included) and both Hamming k-means (widths,
# point sets, k, PriorWeight and seeds).
# FUZZTIME=0 skips (corpus-only replay already ran as part of go test above).
FUZZTIME="${FUZZTIME:-30s}"
if [ "$FUZZTIME" != "0" ]; then
    go test -run='^$' -fuzz=FuzzReadFrame -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzEnvelopeDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzReplRecordDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" ./internal/wal
    go test -run='^$' -fuzz=FuzzWALRecordDecode -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz=FuzzSegmentedOps -fuzztime="$FUZZTIME" ./internal/index
    go test -run='^$' -fuzz=FuzzFuse -fuzztime="$FUZZTIME" ./internal/fusion
    go test -run='^$' -fuzz=FuzzDenseEncodeAll -fuzztime="$FUZZTIME" ./internal/dpe
    go test -run='^$' -fuzz=FuzzHammingKMeans -fuzztime="$FUZZTIME" ./internal/cluster
fi

# Last, the size of the tree: non-blank non-test Go lines per package, the
# transport tier's sum and the total outside bench/ (ROADMAP's diet item
# quotes these). Printed for the reviewer; no threshold.
bash scripts/loc.sh

echo "check.sh: all gates passed"
