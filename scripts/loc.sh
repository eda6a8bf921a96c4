#!/usr/bin/env bash
# Non-blank, non-test Go lines per top-level package, for the transport tier
# (internal/{wire,server,client,router,replica} + mie.go) and for the whole
# tree outside bench/ — the numbers ROADMAP's diet item quotes. No threshold:
# this prints, the reviewer reads.
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR-or-FILE...: non-blank lines of the non-test .go files under it.
count() {
    find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | grep -cv '^[[:space:]]*$' || true
}

printf '%7s  %s\n' "$(count . -maxdepth 1)" "./*.go"
for dir in bench cmd/* examples/* internal/*; do
    [ -d "$dir" ] && printf '%7s  %s\n' "$(count "$dir")" "$dir"
done
printf '%7s  %s\n' "$(count internal/wire internal/server internal/client internal/router internal/replica mie.go)" "transport tier (internal/{wire,server,client,router,replica} + mie.go)"
printf '%7s  %s\n' "$(count . \( -path ./bench -o -path ./.bench_build \) -prune -o)" "total outside bench/"
