# Developer entry points; CI runs the same commands (see .github/workflows).

.PHONY: build test race bench bench-check replay-check kb-verify verify

build:
	go build ./... && go build ./examples/...

test:
	go test ./...

race:
	go test -race . ./internal/core/... ./internal/kb/... ./internal/experiment/... ./internal/eval/... ./internal/mining/... ./internal/server/... ./internal/rdf/... ./internal/dq/... ./internal/olap/... ./internal/clean/... ./internal/provenance/...

# Refresh the committed benchmark snapshot (BENCH_experiments.json); see
# scripts/bench.sh for BENCHTIME / BENCH / OUT overrides.
bench:
	./scripts/bench.sh

# Perf regression gate: rerun the bench suite into a scratch snapshot and
# fail on >40% ns/op or >25% allocs/op regression against the committed
# baselines (scripts/benchcmp's defaults). The serve curve gates
# p99-as-ns/op with a 100% band: load-test latency on a shared runner is
# far noisier than a microbenchmark, and a real admission/batching
# regression shows up as a multiple, not as +40%.
bench-check:
	OUT=/tmp/openbi_bench_check.json INGEST_OUT=/tmp/openbi_bench_check_ingest.json SERVE_OUT=/tmp/openbi_bench_check_serve.json ./scripts/bench.sh
	go run ./scripts/benchcmp BENCH_experiments.json /tmp/openbi_bench_check.json
	go run ./scripts/benchcmp BENCH_ingest.json /tmp/openbi_bench_check_ingest.json
	go run ./scripts/benchcmp -time-tolerance 1.0 BENCH_serve.json /tmp/openbi_bench_check_serve.json

# Behavior regression gate: record a capture against the seed KB, replay
# it against the same KB (-fail-on-diff: advice is byte-stable, any diff
# is a real change), and round-trip a promoted golden (see
# scripts/replaycheck.sh for REPLAY_DURATION / REPLAY_KB overrides).
replay-check:
	./scripts/replaycheck.sh

# Provenance gate: build a KB with a signed manifest, verify it, flip one
# byte inside a record (JSON stays parseable), and require the verifier to
# refuse the KB naming record 0 (see scripts/kbverify.sh).
kb-verify:
	./scripts/kbverify.sh

verify: build test
