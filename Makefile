# Repro build/test gate. `make check` is the CI entry point: vet plus
# the full test suite under the race detector (the serving layer runs
# request workers on goroutines, so races are first-class failures).

GO ?= go

.PHONY: all build vet test race bench bench-record bench-check docs-check fuzz-smoke check ci

all: check

build:
	$(GO) build ./...

# Formatting is checked, not assumed: gofmt's list of offenders is the
# failure message.
vet:
	@fmt=$$(gofmt -l .); test -z "$$fmt" || { echo "gofmt -l lists:"; echo "$$fmt"; exit 1; }
	$(GO) vet ./...

# Fail if exported identifiers in the operator-facing packages lack doc
# comments — their API is the surface docs/OPERATIONS.md describes —
# if any phpserve/phprouter HTTP endpoint is missing from OPERATIONS.md,
# if a document names a phpserve/phprouter flag that OPERATIONS.md's
# generated flag tables do not list (those tables, the metric tables and
# the record schema are rendered from the code and held by `go test`,
# not grepped for here), or if EXPERIMENTS.md's generated block is not
# the rendering of FIGURES.json (no experiment is run). internal/serve
# is in the list because the router and cluster API is what the cluster
# section documents.
docs-check:
	sh scripts/docs_check.sh internal/obs internal/profile internal/cache internal/benchrec internal/serve

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Simulated-clock records (docs/OPERATIONS.md "Benchmark trajectory"),
# one command per direction. bench-record is `cmd/figures -write`: it
# runs the pinned scenario matrix once and appends the next
# BENCH_<n>.json at the repo root, then rebuilds every figure of the
# paper's evaluation and rewrites FIGURES.json (a single file: `git log`
# is its trajectory) together with the block of EXPERIMENTS.md generated
# from it; commit all three.
# bench-check reruns both and fails with one line per difference: any
# deterministic field of the latest BENCH record, allocs/op past its
# slack either way, or any value of any figure (`figure[row].metric base -> fresh`).
# Host time is in neither record: `sh benchmark/run.sh` measures that.
bench-record:
	$(GO) run ./cmd/figures -write

bench-check:
	$(GO) run ./scripts

# Fuzzing, ~10 s per target: each accelerator model against its software
# substrate and its cell-at-a-time oracle, the heap manager + slab
# allocator against a map model of operation sequences, the hardware
# hash table against a software core over operation sequences, the
# script engines against each other, the two parsers of client-supplied
# request bytes (?page= and X-Request-Id) against their contracts, the
# servers' HTTP/1.1 connection loop against arbitrary client bytes, and
# the parser of scraped /metrics bodies against a round trip. `go test -fuzz`
# takes one target of one package per run, so the matrix is this list of
# package:Target pairs — a new Fuzz* function is one more word here. The
# committed seed corpora (testdata/fuzz/) also run as plain tests under
# `go test`; a crasher found here is written there and must be committed
# with its fix.
FUZZ_TARGETS = \
	internal/core/straccel:FuzzFindReplace \
	internal/core/straccel:FuzzTranslate \
	internal/core/straccel:FuzzEscape \
	internal/core/heapmgr:FuzzHeapSequence \
	internal/isa:FuzzHashSequence \
	internal/php:FuzzScriptStrings \
	internal/serve:FuzzParsePage \
	internal/serve:FuzzServeConn \
	internal/obs:FuzzSanitizeRequestID \
	internal/obs:FuzzParsePromText

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime 10s ./$${t%%:*}; \
	done

check: build vet docs-check race

# Full CI gate: `check` (build, vet, docs-check and the whole suite under
# -race — tier-1 `go test ./...` is the deterministic gate and needs no
# variable set to arm any of it), plus fuzz-smoke, bench-check and the
# nested module. No step compares two wall clocks: host time is
# `sh benchmark/run.sh`, never a CI step. The last line builds, vets and
# short-tests the nested benchmark/ module (its own go.mod,
# `replace repro => ../`), which `./...` from the root never compiles: a
# root refactor that breaks its imports or the twin's replay must fail
# here, not in the pipeline.
ci: check fuzz-smoke
	$(MAKE) bench-check
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
