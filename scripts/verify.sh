#!/bin/sh
# verify.sh — the repo's fast correctness gate: formatting drift, build,
# vet, and the whole test suite, then vet and the self-tests of the
# benchmark harness. perfbench/ is its own Go module (it replaces modpeg
# with the checkout), so `go build ./...` at the root never compiles it:
# without the second step a facade change that breaks the harness would
# pass. It runs offline with GOWORK=off GOPROXY=off (about 2 s). The
# race detector runs as its own CI job (see .github/workflows/ci.yml) so
# this gate stays quick enough to run on every change; use
# `go test -race ./...` directly when touching the session pool,
# ParseAll/ParseBatch, or the governance layer.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_drift=$(gofmt -l .)
if [ -n "$fmt_drift" ]; then
	echo "gofmt drift in:" >&2
	echo "$fmt_drift" >&2
	exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && GOWORK=off GOPROXY=off go vet ./... && GOWORK=off GOPROXY=off go test ./...)
echo "verify: OK"
