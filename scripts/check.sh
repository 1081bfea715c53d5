#!/usr/bin/env sh
# The expanded tier-1 gate: build, gofmt, standard vet, the repo's invariant
# checker (cmd/tdbvet), and the full test suite under the race detector.
# CI runs exactly this script; run it locally before sending a PR.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
test -z "$unformatted" || { echo "$unformatted"; exit 1; }

echo "==> go vet ./..."
go vet ./...

echo "==> tdbvet ./..."
go run ./cmd/tdbvet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> all checks passed"
