# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GOBIN ?= $(shell go env GOPATH)/bin

.PHONY: build test race lint nslint fuzz-smoke chaos-overload delivery-fanout bench-selftest loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/par ./internal/vcodec ./internal/sr ./internal/frame ./internal/icodec ./internal/metrics ./internal/wire ./internal/media ./internal/sched ./internal/edge ./internal/flight

# lint always runs nslint (self-contained, no downloads); staticcheck and
# govulncheck run when installed. To install the pinned versions CI uses:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.4
lint: nslint
	@if [ -x "$(GOBIN)/staticcheck" ]; then "$(GOBIN)/staticcheck" ./...; \
	else echo "staticcheck not installed; skipping (see Makefile for the pinned install)"; fi
	@if [ -x "$(GOBIN)/govulncheck" ]; then "$(GOBIN)/govulncheck" ./...; \
	else echo "govulncheck not installed; skipping (see Makefile for the pinned install)"; fi

# Whole-tree analysis under the same 60-second wall-clock budget CI
# enforces; the interprocedural analyzers (ownership, refbalance,
# budgetflow, lockorder, goleak) need the multi-package load, so the
# budget keeps them honest.
nslint:
	go build -o /tmp/nslint ./cmd/nslint
	timeout 60 /tmp/nslint ./internal/... ./cmd/... ./examples/... .

# Every Fuzz* target in the tree for 30 s each, the structured ones behind
# the fuzz build tag included. `go test -list` finds the targets, so one
# added later runs here (and in CI) without being listed anywhere.
fuzz-smoke:
	@set -e; \
	list=$$(go test -tags fuzz -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$target $$pkg"; \
		go test -tags fuzz -run xxx -fuzz "^$$target\$$" -fuzztime 30s $$pkg; \
	done

# Overload-control tier under the race detector: deadline propagation,
# queue discipline, brownout ladder, on-demand stream registration, and
# the burst / gray-failure chaos scenarios (mirrors the chaos-overload CI
# job).
chaos-overload:
	go test -race -timeout 15m -run 'TestJobQueue|TestTokenBucket|TestBrownout|TestPoolBackoffBoundedByDeadline|TestPoolBreakerHalfOpenExactlyOnce|TestPoolRegistersOnDemandAfterRedial|TestPoolRefus|TestPoolRegistrationScales|TestRemoteEnhancerRestartRegistersOnDemand|TestEnhancerServerTypedOverloadReplies|TestIngestTokenBucket|TestMetricsEndpoint|TestChaosOverloadBurstBoundedLatency|TestChaosGrayFailureContainedByDeadlines|TestDeadlineNoOpByteIdentical' ./internal/media

# Delivery tier: edge concurrency tests under the race detector, then
# the whole edge package (mirrors the delivery-fanout CI job).
delivery-fanout:
	go test -race -timeout 10m -run 'TestEdgeSingleFlight|TestEdgeSubscribeFanout|TestEdgeUpstreamChaos' ./internal/edge
	go test -timeout 10m ./internal/edge

# cmd/nsbench is a module of its own, so build/test/nslint above never
# compile it although it wraps media's public types (EnhancerPool, the
# ModelProvider and AnchorEnhancer seams). This builds it, runs its
# self-test, and makes four short runs whose result lines must say
# "correct":true — ingest_gpu over TCP replicas, ingest_cpu over
# in-process ones, delivery_zipf, whose viewers byte-check every
# container they fetch through edge → edge.Client, and live_mixed, the
# one workload that ingests beside delivery; byte-identity against
# the serial origin and a closed anchor ledger are checked inside each run
# (mirrors the bench-selftest CI job). The allocation gate is nsbench's
# allocs_per_op under its 2% bound, on every PR.
bench-selftest:
	cd cmd/nsbench && go vet . && go test .
	sh cmd/nsbench/run.sh --workload ingest_gpu --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	sh cmd/nsbench/run.sh --workload ingest_cpu --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	sh cmd/nsbench/run.sh --workload delivery_zipf --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	sh cmd/nsbench/run.sh --workload live_mixed --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'

# Non-test lines of the three serving-path packages, then their sum
# (ROADMAP "One serving path, one world" sets its target against the
# sum); then the same for the lint suite, internal/lint and cmd/nslint
# without their test fixtures (ROADMAP "nslint diet").
loc:
	@for pkg in media edge wire; do \
		find internal/$$pkg -name '*.go' ! -name '*_test.go' | xargs cat | wc -l; \
	done | awk '{ print; sum += $$1 } END { print sum, "total" }'
	@for dir in internal/lint cmd/nslint; do \
		find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l; \
	done | awk '{ print; sum += $$1 } END { print sum, "total" }'
