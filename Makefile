GO ?= go

.PHONY: all build test test-noasm race lint vet-tool fmt linked-symbols flake-census master-smoke bench bench-smoke ci

all: lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-noasm also proves the portable wire codec — the only one a
# big-endian target has — still compiles there, and so does the
# off-Linux twin of kernel.Map (plus its Linux file on arm64).
test-noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./...
	GOARCH=s390x $(GO) vet ./internal/wire
	GOOS=darwin $(GO) vet ./internal/kernel ./internal/mat ./internal/gf
	GOOS=windows $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/kernel

race:
	$(GO) test -race ./...
	S2C2_KERNEL_BACKEND=generic $(GO) test -race ./internal/kernel ./internal/wire
	$(GO) test -race -tags noasm ./internal/wire ./internal/rpc

# lint mirrors the CI static-analysis job: gofmt, go vet, then the
# repo's own invariant suite both standalone (the authority — full
# module view) and through the go vet -vettool protocol.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o ./s2c2-vet ./cmd/s2c2-vet
	./s2c2-vet ./...
	$(GO) vet -vettool=$$(pwd)/s2c2-vet ./...

# vet-tool just builds the invariant checker binary.
vet-tool:
	$(GO) build -o ./s2c2-vet ./cmd/s2c2-vet

fmt:
	gofmt -w .

# linked-symbols prints the sorted union of the module's text symbols
# that some binary links: every cmd, every example and the benchmark
# harness, built without inlining so each function keeps its symbol.
# Diff its output at a parent and at a change to see what a deletion
# removed from the binaries.
linked-symbols:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	$(GO) build -gcflags=all=-l -o $$d/ ./cmd/... ./examples/... && \
	$(GO) build -C benchmark -gcflags=all=-l -o $$d/benchmark . && \
	for f in $$d/*; do $(GO) tool nm $$f; done | \
	awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^github.com\/coded-computing\/s2c2/ { print $$3 }' | sort -u

# flake-census builds one package's test binary and runs it N times in
# fresh processes, once with -test.count=N, and once per test alone with
# -test.count=N, then prints, per test that failed, its failures out of N
# in each mode and each distinct first failure line
# (scripts/flake-census.sh). It exits non-zero on any failure.
PKG ?= ./internal/rpc
N ?= 20
flake-census:
	bash scripts/flake-census.sh $(PKG) $(N)

# master-smoke runs s2c2-master end to end — the float mode, -mode exact
# and -mode exact -jobs 2 — against four local workers, one a 5x
# straggler, and checks each mode's final line
# (scripts/master-smoke.sh).
master-smoke:
	bash scripts/master-smoke.sh

# bench runs the repo's one benchmark (BENCHMARK.json): all four
# workloads, end-to-end metrics; see benchmark/README.md for flags.
bench:
	bash benchmark/run.sh

# bench-smoke runs every go-test benchmark once (they live next to their
# layers: BenchmarkMDSEncode, BenchmarkGFMDSEncode, BenchmarkWirePayload,
# BenchmarkChunkStream on the data path; BenchmarkLSTMPredict,
# BenchmarkLSTMFit, BenchmarkSimRound on the prediction path), then the
# harness: its own vet + smoke test (benchmark/ is a separate module, so
# ./... skips it) and short runs of all four workloads, which fail on any
# wrong decode.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	cd benchmark && $(GO) vet . && $(GO) test .
	bash benchmark/run.sh --workload gf-batch-serve --seconds 4
	bash benchmark/run.sh --workload dram-matvec --seconds 4
	bash benchmark/run.sh --workload straggler-mix --seconds 4
	bash benchmark/run.sh --workload sim-paper --seconds 4

ci: lint test test-noasm race bench-smoke
