# Tier-1 gate plus the repo-specific static analyzer, formatting,
# full-tree race detection, and fuzz smoke runs.

.PHONY: verify build cross-build bench-build test race vet fmtcheck couchvet fuzz-smoke bench-smoke bench-pairs cluster-test trace-demo loc

verify: fmtcheck vet build bench-build test couchvet race

build:
	go build ./...

# internal/storage maps its files on linux only (mmap_linux.go,
# mmap_other.go): the side no test here runs must at least compile.
cross-build:
	GOOS=darwin go build ./...
	GOOS=windows go vet ./internal/storage

# bench/ is its own module (`go build ./...` never compiles it) that
# imports internal packages through a replace directive, so an internal
# API change breaks it silently; CI has the same step.
bench-build:
	cd bench && go vet . && go test .

test:
	go test ./...

vet:
	go vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# couchvet runs all eight rules plus the unused-pragma audit; vetfmt
# turns the JSON findings into GitHub Actions ::error annotations and
# is the pipe's exit status, so an empty stream (couchvet crashed)
# fails the gate instead of passing silently.
couchvet:
	go run ./cmd/couchvet -json ./... | go run ./cmd/vetfmt

race:
	go test -race ./...

# Non-test Go lines per package, bench/ and lint fixtures excluded:
# the number a simplification PR quotes in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# End-to-end tracing demo: a small YCSB run with 1-in-8 sampling,
# printing the slowest cross-layer trace per phase (DESIGN.md §7).
trace-demo:
	go run ./cmd/ycsb -workload a -records 2000 -ops 4000 -threads 8 -nodes 2 -vbuckets 32 -trace 8

# Process-level cluster tests: build the real cbserver binary (with
# -race, as are the tests), launch three OS processes speaking the
# binary KV wire protocol, then (a) kill -9 one and assert
# auto-failover with no acknowledged write lost, and (b) push a
# ReplicateTo=1 write through one node and fetch its distributed
# trace — stitched across all three processes — from another node.
# Behind a build tag so tier-1 `make test` stays fast.
cluster-test:
	go test -tags clustertest -race -count=1 -timeout 10m -v ./integration

# Each fuzz target gets a short bounded run; any crasher fails the
# target. Lengthen with FUZZTIME=1m etc. for local soak runs.
FUZZTIME ?= 10s

# Hot-path microbenchmarks with allocation reporting. Not a perf gate
# (CI machines are too noisy for ns/op thresholds) — the allocs/op
# column is the thing to watch, and the hard allocation limits live in
# the TestXxxZeroAlloc / TestXxxAllocBudget gates run by `make test`.
bench-smoke:
	go test -run='^$$' -bench='BenchmarkGetResident|BenchmarkSetOverwrite|BenchmarkGetParallel' -benchmem -benchtime=1000x ./internal/cache
	go test -run='^$$' -bench='BenchmarkPagerSweep' -benchmem -benchtime=200x ./internal/cache
	go test -run='^$$' -bench='BenchmarkFrameAppend' -benchmem -benchtime=1000x ./internal/memcproto
	go test -run='^$$' -bench='BenchmarkSetPublish|BenchmarkDoGet|BenchmarkDoSet|BenchmarkDoGetEvicted' -benchmem -benchtime=1000x ./internal/vbucket
	go test -run='^$$' -bench='BenchmarkStreamHandoff' -benchmem -benchtime=100000x ./internal/dcp
	go test -run='^$$' -bench='BenchmarkAppendBatch' -benchmem -benchtime=2000x ./internal/storage
	go test -run='^$$' -bench='BenchmarkGetMapped' -benchmem -benchtime=200000x ./internal/storage
	go test -run='^$$' -bench='BenchmarkWorkloadEQuery' -benchmem -benchtime=1000x -cpu 1,2 ./internal/core
	go test -run='^$$' -bench='BenchmarkTreeScan' -benchmem -benchtime=500000x -cpu 1,2 ./internal/gsi
	go test -run='^$$' -bench='BenchmarkRoute' -benchmem -benchtime=20000x ./internal/gsi
	go test -run='^$$' -bench='BenchmarkSetAfterlife' -benchmem -benchtime=200000x ./internal/core
	go test -run='^$$' -bench='BenchmarkClientGet|BenchmarkClientSet' -benchmem -benchtime=1000000x -cpu 1,2 ./internal/core
	go test -run='^$$' -bench='BenchmarkDGMRead' -benchmem -benchtime=500000x -cpu 2 ./internal/core
	go test -run='^$$' -bench='BenchmarkWireGet' -benchmem -benchtime=20000x ./internal/transport

# Alternating parent/change pairs of couchbench workloads, the
# procedure every ROADMAP gate asks for (WORKLOAD may list several):
#   make bench-pairs BASE=HEAD~1 WORKLOAD="lib.kv-a wire.kv-a" [PAIRS=10] [SEED=42]
PAIRS ?= 10
SEED ?= 42
bench-pairs:
	SEED=$(SEED) bash scripts/benchpairs.sh $(BASE) "$(WORKLOAD)" $(PAIRS)

fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzCollate -fuzztime=$(FUZZTIME) ./internal/value
	go test -run='^$$' -fuzz=FuzzPathParse -fuzztime=$(FUZZTIME) ./internal/value
	go test -run='^$$' -fuzz=FuzzParseValid -fuzztime=$(FUZZTIME) ./internal/value
	go test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=$(FUZZTIME) ./internal/storage
	go test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/memcproto
	go test -run='^$$' -fuzz=FuzzTraceContext -fuzztime=$(FUZZTIME) ./internal/memcproto
	go test -run='^$$' -fuzz=FuzzOpRoundTrip -fuzztime=$(FUZZTIME) ./internal/transport
	go test -run='^$$' -fuzz=FuzzPagedScan -fuzztime=$(FUZZTIME) ./internal/gsi
