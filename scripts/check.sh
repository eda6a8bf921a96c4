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
go build ./...
# The goroutine-leak sentinel (internal/leakcheck) must stay wired into the
# connection-lifecycle tests; a silent drop would let Close-path leaks pass.
for pkg in internal/server internal/client internal/replica internal/router; do
    if ! grep -q "leakcheck.Check" "$pkg"/*_test.go; then
        echo "check.sh: $pkg tests no longer use the leakcheck sentinel" >&2
        exit 1
    fi
done

# Layering gate first and by name: the segmented-index refactor depends on
# core/index/cluster staying free of transport imports (and index/cluster
# free of upward imports), and the scale-out tier on replica/router never
# reaching into the server, and the MSSE baselines importing nothing of MIE
# but its primitives (an allow-list). The full suite runs these too, but a
# fast, explicit failure here names the broken boundary instead of burying it.
go test -run 'TestEngineLayersDoNotImportTransport|TestIndexAndClusterDoNotImportCore|TestReplicationTierImportBoundaries|TestBaselinesImportOnlyPrimitives' ./internal/core

# -shuffle surfaces inter-test ordering dependencies; -cover prints a
# per-package coverage summary so coverage regressions are visible in CI
# logs.
go test -race -shuffle=on -cover ./...

# Connection-lifecycle packages again, repeated: admission slots, mux
# teardown, follower resume and router failover are where an ordering bug
# shows up one run in fifty, and one pass of the full suite would miss it.
# internal/wire rides along for its pooled write buffers, internal/index
# because its searches read sealed segments' live bits and the memtable
# under nothing but the facade lock, against concurrent
# Add/Remove/Seal/Compact.
go test -race -count=5 ./internal/wire ./internal/server ./internal/client ./internal/replica ./internal/router ./internal/index
# The write path's one encoding, repeated too: WAL record codec, recovery
# (crash matrix, refusal of anything that is not a record) and the leader-log = follower-log
# identity test, which runs a two-node cluster under a partition. The ANN
# tests ride along: an epoch install releases a candidate index while
# searches that loaded the previous epoch may still be probing it. So do the
# Train tests: a run aborted at the install hook merging its ids back, and the
# install-time re-index of writes made while a Train is held, are again where
# an ordering bug shows one run in fifty.
go test -race -count=5 -run 'WAL|Durable|Crash|Replicat|ANN|Train|Incremental|Epoch' ./internal/core

# The experiment printer still builds and runs all three schemes end to end
# — build, train, query, rank — through the binary (about two seconds; its
# gates are go tests in internal/experiments, run above).
go run ./cmd/mie-bench -scale quick -experiment table2,fig5,table3
# The index microbenchmark still runs, at one core and two. No parsing, no
# threshold: speed gates live in bench/.
go test -run '^$' -bench SegmentedLookup -benchtime 100x -cpu 1,2 ./internal/index
# Likewise the trained, durable update path at the spine's engine shape
# (ingest-durable's mix, without the transport); it reports the live heap a
# mutation leaves behind beside allocations.
go test -run '^$' -bench TrainedUpdate -benchtime 100x -cpu 1,2 ./internal/core
# Likewise the frame codec's round trip over the spine's three frame shapes.
go test -run '^$' -bench FrameRoundTrip -benchtime 100x ./internal/wire
# And the client's Dense-DPE encode at the shapes that run (one descriptor,
# one image's 29, at 2048 and 512 bits).
go test -run '^$' -bench DenseDPEEncode -benchtime 100x -cpu 1,2 ./internal/dpe

# Fuzz smoke over the decoders that face untrusted or crash-damaged input:
# wire frames arriving off the network (the binary frame header, every
# payload body, replication batches) and WAL bytes read back after a
# crash (the log's framing, then each record's mutation body, which is also
# what a follower is handed) must fail cleanly, never panic — and over the
# two kernels that are
# checked against a naive reference: the segmented index (operation traces)
# and the Dense-DPE encode (dimensions, batch sizes and components,
# non-finite ones included).
# FUZZTIME=0 skips (corpus-only replay already ran as part of go test above).
FUZZTIME="${FUZZTIME:-30s}"
if [ "$FUZZTIME" != "0" ]; then
    go test -run='^$' -fuzz=FuzzReadFrame -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzEnvelopeDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzReplRecordDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" ./internal/wal
    go test -run='^$' -fuzz=FuzzWALRecordDecode -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz=FuzzSegmentedOps -fuzztime="$FUZZTIME" ./internal/index
    go test -run='^$' -fuzz=FuzzDenseEncodeAll -fuzztime="$FUZZTIME" ./internal/dpe
fi

# Last, the size of the tree: non-blank non-test Go lines per package, the
# transport tier's sum and the total outside bench/ (ROADMAP's diet item
# quotes these). Printed for the reviewer; no threshold.
bash scripts/loc.sh

echo "check.sh: all gates passed"
