#!/bin/sh
# Extended tier-1 gate: formatting, static vetting, the full test suite
# under the race detector (the obs registry, codecs' parallel paths, the
# ckpt pipeline and the cluster simulator all exercise real concurrency),
# and every fuzz target replayed over its seed corpus. See ROADMAP.md.
set -eux
cd "$(dirname "$0")/.."
fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi
go vet ./...
go test -race ./...
# lcbench is its own module (it replaces lcpio with ../), so the root
# ./... patterns above skip it: vet and test it from its own directory.
(cd lcbench && go vet ./... && go test ./...)
# Fuzz seed-corpus replay: every Fuzz target re-runs its seeds, which
# include pinned golden streams of all surviving format versions, so codec
# format changes are exercised against old streams on every gate run
# (FuzzSvcFrame replays the checkpoint-service wire-framing corpus here,
# and FuzzSketch the advisor's hostile-field corpus).
go test -run '^Fuzz' ./...

# Benchmark smoke: run every Benchmark* function once so none rots between
# the runs that time them. Per-layer throughput comes from these with
# `go test -bench`; end-to-end wall-clock numbers come from lcbench.
go test -run '^$' -bench . -benchtime 1x ./...

# Daemon concurrency gate: the checkpoint service must sustain 8
# simultaneous tenant streams race-clean with byte-identical restores, and
# its admission queue must drain under session pressure. Run by name (and
# again as part of the -race sweep above) so a regression is unmissable.
go test -race -count=1 -v \
    -run '^(TestConcurrentTenantsByteIdentical|TestAdmissionQueuesOnSessionPressure|TestBackpressureEngages)$' \
    ./internal/svc/

# Advisor regret gate: on every held-out fpdata recipe the sketch-driven
# pick must land within 5% modeled energy of the exhaustive sweep optimum,
# and the online feedback loop must shrink ratio error dump over dump. Run
# by name so a calibration regression is unmissable.
go test -race -count=1 -v \
    -run '^(TestAdvisorRegretGate|TestFeedbackConvergence)$' \
    ./internal/advisor/

# Checkpoint determinism gate: full, parity and delta sets — written and
# reported through the one set pipeline on stream.Engine — must be
# byte-identical at every worker count. Run by name so a broken shared
# pipeline cannot hide in the full sweep.
go test -race -count=1 -v \
    -run '^(TestRoundTripByteIdenticalAcrossWorkerCounts|TestParityWriteByteIdenticalAcrossWorkerCounts|TestDeltaDeterministicAcrossWorkers|TestReportDeterministicAcrossWorkerCounts)$' \
    ./internal/ckpt/

# Codec determinism gate: sz and zfp streams must be byte-identical at every
# worker count and decode alike on every worker count, a reused Compressor
# must match one-shot calls, and every compress entry point (Lookup,
# LookupParallel, NewHandle, Compress64) must give the same bytes and the
# same unknown-codec error. Run by name so a broken lane table or codec
# table cannot hide in the full sweep.
go test -race -count=1 -v \
    -run '^(TestParallelBytesDeterministic|TestParallelDecodeEquivalence|TestCompressorReuseMatchesOneShot)$' \
    ./internal/sz/ ./internal/zfp/
go test -race -count=1 -v \
    -run '^(TestEntryPointsByteIdentical|TestEntryPointsRejectUnknownCodecAlike)$' \
    ./internal/compress/

# Alloc gates: with warm scratch, 8-worker compression may add only an empty
# fan-out's allocations (plus a small slack) over 1 worker. They skip under
# -race, so run them by name without it.
go test -count=1 -v -run '^TestCompressAllocsSteadyAcrossWorkers$' \
    ./internal/sz/ ./internal/zfp/

# Worker-scaling gate: on hosts with >= 8 cores, 8-worker compression must
# reach >= 3x the 1-worker throughput on both codecs (the tests self-skip on
# narrower machines, where wall-clock scaling assertions are meaningless).
LCPIO_SCALING_GATE=1 go test -run '^TestScalingGate$' -count=1 -v \
    ./internal/sz/ ./internal/zfp/

# `lcpio report` smoke: record a traced checkpoint write plus its campaign
# energy report, then replay the trace through the offline report renderer
# and re-export it as a Chrome trace and folded stacks.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/lcpio" ./cmd/lcpio
"$tmp/lcpio" -trace "$tmp/trace.json" ckpt write -out "$tmp/set.lcp" \
    -ranks 2 -fields 1 -elems 4096 -energy -iters 2 -compute 1 >/dev/null
"$tmp/lcpio" report -in "$tmp/trace.json" | grep -q 'ckpt.write'
"$tmp/lcpio" report -in "$tmp/trace.json" -chrome-out "$tmp/trace_chrome.json" \
    -folded-out "$tmp/trace.folded" >/dev/null
test -s "$tmp/trace_chrome.json"
test -s "$tmp/trace.folded"
