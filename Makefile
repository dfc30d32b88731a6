GO ?= go

# Minimum per-package statement coverage (percent) for the cover gate.
COVER_FLOOR ?= 60

.PHONY: build vet detvet lint test short race digests bench cover perfbench all check

build:
	$(GO) build ./...

vet: detvet
	$(GO) vet ./...

# Determinism vet over the repo's own Go sources: the packages that
# compute simulated time or experiment tables must not read the wall
# clock, the global math/rand generator, or map iteration order.
detvet:
	$(GO) run ./cmd/detvet

# Static memory-safety lint over the shipped IR modules (examples +
# CARAT kernel suite); non-zero exit on any diagnostic. The second leg
# checks the optimizer/linter lockstep: with the analysis-driven
# optimizer applied first, the opportunity linter must also be silent.
lint:
	$(GO) run ./cmd/interweave lint examples/... kernels/...
	$(GO) run ./cmd/interweave lint -opt -O examples/... kernels/...

test:
	$(GO) test ./...

# Quick gate: skips the multi-second sweep tests.
short:
	$(GO) test -short ./...

# Every package's tests under the race detector: the allocator
# front-end, result cache and experiment service included.
race:
	$(GO) test -race -timeout 600s ./...

# Regenerate every table of `interweave all` at seed 42 and at one
# chaos seed, and compare the digests with internal/core/testdata/
# digests.json (rewrite it with `go test -run TestDigestManifest
# ./internal/core -args -update` when results are meant to change).
# TestUndeclaredFieldsInert checks the registry's per-experiment result
# coordinates: a field an experiment does not declare leaves its tables
# byte-identical. The race leg skips both tests, so they run here.
digests:
	$(GO) test -run 'TestDigestManifest|TestUndeclaredFieldsInert' ./internal/core

# Every testing.B benchmark, three runs each. The component claims in
# BENCH_interp.json, BENCH_mem.json and BENCH_cache.json are re-measured
# with the commands in DESIGN.md; perfbench/ owns the end-to-end ones.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=3 ./...

# Per-package coverage gate over the internal packages: fails if any
# package tests below $(COVER_FLOOR)% of statements (or has no tests at
# all). Uses -short so it stays cheap enough for check.
cover:
	@$(GO) test -short -count=1 -cover ./internal/... | awk -v floor=$(COVER_FLOOR) '\
		{ print } \
		/\[no test files\]/ { bad = bad "  " $$2 " (no test files)\n" } \
		$$1 == "ok" && /coverage:/ { if ($$5+0 < floor) bad = bad "  " $$2 " (" $$5 ")\n" } \
		END { if (bad != "") { printf "\ncover: packages below the %s%% floor:\n%s", floor, bad; exit 1 } }'

# The end-to-end benchmark harness is its own module (perfbench/go.mod),
# so the root build, vet and test legs never compile it; this leg vets
# and tests it against the current tree.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# Regenerate every table/figure (parallel across all cores by default).
all:
	$(GO) run ./cmd/interweave all

# Standard local gate.
check: build vet lint race digests cover perfbench
