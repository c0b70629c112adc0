# Tier-1 verification plus the full CI gate.

GO ?= go

.PHONY: all build vet test race ci fmt fmt-check demo bench benchdiff loc test-only-exports metrics-smoke fuzz-smoke scale-smoke repro-smoke alloc-smoke

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ci is the gate: compile everything, vet, enforce gofmt, run the full
# suite under the race detector (the node runtime and transports are
# concurrent code; plain `go test` would let scheduling bugs through),
# smoke-test the built binary's metrics endpoint end to end, give the
# wire decoders a short hostile-input fuzz pass, hold the figures to
# byte-identical output run to run, hold the hot paths' allocation
# pins, which skip themselves under -race, and keep out exported funcs
# that only tests call.
ci: build vet fmt-check test-only-exports race scale-smoke metrics-smoke fuzz-smoke repro-smoke alloc-smoke

# alloc-smoke runs every allocation pin natively: the race detector
# allocates on its own and drops sync.Pool items at random, so under `race`
# these tests skip themselves and nothing else would hold them.
alloc-smoke:
	$(GO) test -count=1 -run 'Alloc' ./internal/agg ./internal/churn ./internal/oracle ./internal/protocol ./internal/node ./internal/wire ./internal/obs ./internal/transport

# scale-smoke answers a short query stream over a 2,048-host in-process
# fleet and asserts the goroutine peak stays O(shards), not O(hosts) —
# the bounded gate for the host-sharded scheduler — that every answered
# query's state is retired by the time the stream ends, and that no read
# fell to the deadline cap. Native (no -race): the
# fleet size is calibrated for real execution speed, and the shard
# serialization invariant is race-checked at small scale by the node
# package's property tests, which `race` already runs.
scale-smoke:
	$(GO) test ./internal/daemon -run '^TestScaleSmoke2K$$' -count=1 -v

# repro-smoke holds the event loop to its contract: every experiment of
# the built validitybench, run twice from one seed, prints the same bytes,
# and they are the bytes committed in REPRO_GOLDEN. A change that moves a
# figure re-pins it with
#   go run ./cmd/validitybench -all -scale 0.03 -trials 2 > $(REPRO_GOLDEN)
# and names the rows that moved.
REPRO_GOLDEN = internal/experiment/testdata/validitybench-all-scale0.03-trials2.txt

repro-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/validitybench ./cmd/validitybench && \
	$$d/validitybench -all -scale 0.03 -trials 2 > $$d/a.txt && \
	$$d/validitybench -all -scale 0.03 -trials 2 > $$d/b.txt && \
	cmp $$d/a.txt $$d/b.txt && cmp $(REPRO_GOLDEN) $$d/a.txt && \
	echo "repro-smoke: validitybench -all byte-identical run to run and to $(REPRO_GOLDEN)"

# metrics-smoke gates the observability surface of the built binaries,
# not just the packages: act 1 boots one validityd with -metrics on and
# scrapes /metrics and /debug/queries mid-run; act 2 boots a
# three-process TCP fleet with -fleet wired and asserts the typed
# /debug/snapshot and /debug/trace endpoints, the rolled-up
# /metrics/fleet exposition, and a validitytop -once status table all
# answer off the live processes.
metrics-smoke:
	./scripts/metrics-smoke.sh

# fuzz-smoke runs each wire-decoder fuzz target for a couple of seconds —
# the frame decoder over wire's own codecs (FuzzDecode), the partial
# decoder alone, the sketch reader under it, and the frame decoder over
# every protocol codec: not a soak, just enough mutation on top of the seed
# corpus to catch a decoder that panics, over-allocates or accepts bytes its
# encoder would not write before it ships.
# Longer runs: go test ./internal/wire -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5m
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 2s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodePartial$$' -fuzztime 2s
	$(GO) test ./internal/fm -run '^$$' -fuzz '^FuzzReadPacked$$' -fuzztime 2s
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzDecodeFrameBody$$' -fuzztime 2s

fmt:
	gofmt -l .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt required for:"; echo "$$out"; exit 1; \
	fi

# demo runs the multi-process WILDFIRE demo: two validityd workers plus
# one querying process shard 60 hosts over TCP on loopback and answer a
# concurrent stream of COUNT/MIN queries under per-query churn, every
# result judged against the oracle bounds of its own membership timeline;
# act two streams a continuous §4.2 query (-continuous) over its own
# fleet, one line per window against that window's own bounds. Act one
# also arms the fleet observability plane: every process exposes
# -metrics, the issuer carries -fleet, and the demo scrapes
# /metrics/fleet, prints a merged cross-process slow-query timeline,
# and renders a validitytop -once snapshot.
demo: build
	./scripts/demo-validityd.sh

# bench runs the repository's one benchmark (bench/README.md): five
# workloads, end-to-end metrics, every answer judged valid or counted
# failed. BENCHMARK.json is its machine-readable contract.
bench:
	$(GO) run ./bench

# benchdiff judges two sets of `go run ./bench -out FILE` results, at least
# three runs a side: make benchdiff A=parent_dir B=change_dir. Without A
# and B the program prints its -compare usage.
benchdiff:
	$(GO) run ./bench -compare $(A) $(B)

# loc prints the two line counts CHANGES.md reports per PR: non-test and
# _test.go Go lines outside bench/.
loc:
	@echo src_loc $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l) \
	     test_loc $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)

# test-only-exports lists exported funcs and methods under internal/ that
# only tests still mention, and fails if there is any: code kept alive by
# its own tests alone is deleted, or gains a caller. Part of ci.
test-only-exports:
	@./scripts/test-only-exports.sh
