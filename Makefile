GO ?= go

.PHONY: verify vet fmt golden race faultsmoke loc-delta soak servesmoke slosmoke fuzz-smoke fuzz litmus execdiff bench bench-json bench-json-0 bench-diff ci

# Tier-1: the gate every change must pass (see ROADMAP.md), plus the
# static gates and the race detector over the parallel sweep engine.
# The exp determinism/golden tests pin 8-worker runners internally, so
# the race run exercises real cross-worker interleavings.
verify: vet fmt
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/exp/...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate the golden snapshots after an intentional metric change,
# then inspect the diff before committing.
golden:
	$(GO) test ./internal/exp -run TestGoldenOutputs -update

# Tier-2: static analysis + race detector over the full suite.
race: vet
	$(GO) test -race ./...

# Fault-injection smoke: seeded dropped-fill run must recover, validate
# against the golden model, and replay byte-for-byte from its seed; every
# DSA run kind must pass the watchdog and invariants with a Result equal
# to its unsupervised one, and an address-cache budget abort must be a
# typed failure.
faultsmoke:
	$(GO) test -run 'TestFaultSmoke|TestHarnessCleanRunAllDSAs|TestAddrBudgetExhaustionReport' ./internal/check

# Per-PR line report: added, deleted and net non-test Go lines of the
# tracked working tree against BASE (stage new files first).
BASE ?= HEAD~1
loc-delta:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' | \
		awk '{a += $$1; d += $$2} END {printf "added %d, deleted %d, net %d non-test Go lines\n", a, d, a - d}'

# Fault-matrix soak: the widened injector matrix (every fault class ×
# several seeds × three DSAs) driven through the resilient sweep engine
# under the race detector. Plain `go test` runs the short matrix; this
# target is the verify-tier full version. See internal/exp/runner/README.md.
soak:
	XCACHE_SOAK=full $(GO) test -race -run TestFaultMatrixSoak -count=1 -v ./internal/exp/runner

# Serve smoke: the multi-tenant service layer under the race detector.
# The serve loop drives Parallelize'd controller shards over one shared
# DRAM mux — the first genuinely concurrent shared-state path beyond the
# sweep worker pool — so the race detector must gate it in ci. Covers
# the unloaded smoke, the serial-vs-parallel determinism cross-check and
# the full chaos soak (seeded faults, byte-stable stats).
servesmoke:
	$(GO) test -race -count=1 -run 'TestSmoke|TestDeterminism|TestChaosSoak' ./internal/serve

# SLO smoke: the graceful-degradation tier under the race detector —
# the AIMD governor's convergence proofs (tight budget throttles and
# sheds, slack budget never does, factor recovers off the floor after
# pressure lifts) plus the channel-outage acceptance proof (seeded
# outage at 1.5x load: conservation holds, the mux quarantines and
# re-steers, SLO attainment recovers to its pre-fault level within
# bounded epochs, and the report is byte-stable serial vs 8 workers)
# and the multi-channel knee shift.
slosmoke:
	$(GO) test -race -count=1 -run 'TestSLOGovernorThrottles|TestSLOSlackBudget|TestSLOGovernorRecovers|TestChannelOutageRecovery|TestMultiChannelKnee|TestMuxFailover' ./internal/serve

# Fuzz smoke: replay the checked-in seed corpora (testdata/fuzz/) through
# every fuzz target deterministically — no -fuzz randomness, so it is a
# stable CI tier (~seconds). FuzzDecode/FuzzAssemble pin the ISA layer;
# FuzzVerify pins accepts-implies-no-structural-trap on a live
# controller; FuzzParseTenantSpec pins the xcache-serve tenant grammar
# (accept implies valid, canonical-format round-trip); FuzzCoherence pins
# the coherent hierarchy against its flat single-port oracle (including
# the committed regression input for the grant/back-inval race);
# FuzzDRAMSched pins the DRAM scheduler against its verbatim pre-slab
# copy in lockstep, FuzzImage the paged memory image against a
# word-map oracle, and FuzzSectorAlloc the bitmap sector allocator
# against its verbatim []bool first-fit copy, and FuzzAddrCache the
# address cache against its verbatim pre-slab copy in lockstep.
fuzz-smoke:
	$(GO) test -run Fuzz -count=1 ./internal/isa ./internal/ctrl ./internal/serve ./internal/hier ./internal/dram ./internal/mem ./internal/dataram ./internal/addrcache

# Open-ended fuzzing (not part of ci): 30s per target, promote anything
# interesting from the build cache into testdata/fuzz/ before committing.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa
	$(GO) test -fuzz FuzzAssemble -fuzztime 30s ./internal/isa
	$(GO) test -fuzz FuzzVerify -fuzztime 30s ./internal/ctrl
	$(GO) test -fuzz FuzzExecDiff -fuzztime 30s ./internal/ctrl
	$(GO) test -fuzz FuzzParseTenantSpec -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzCoherence -fuzztime 30s ./internal/hier
	$(GO) test -fuzz FuzzDRAMSched -fuzztime 30s ./internal/dram
	$(GO) test -fuzz FuzzImage -fuzztime 30s ./internal/mem
	$(GO) test -fuzz FuzzSectorAlloc -fuzztime 30s ./internal/dataram
	$(GO) test -fuzz FuzzAddrCache -fuzztime 30s ./internal/addrcache

# Coherence litmus + protocol suite, race-gated: the golden-pinned litmus
# outcomes (store buffering, message passing, load buffering, write
# serialization, upgrade, inclusion), the MESI-lite unit tests (sharing,
# invalidation, eviction writeback, merge serialization, fault retry and
# the liveness trap), and the coh-share figure's golden + shape checks.
litmus:
	$(GO) test -race -count=1 -run 'TestLitmus|TestCoh' ./internal/hier
	$(GO) test -race -count=1 -run 'TestCohShare' ./internal/exp

# Executor equivalence, race-gated: the per-cycle lockstep differential
# harness and trap-parity matrix over both microcode executors
# (internal/ctrl), plus the end-to-end result-equivalence sweep across
# every DSA's real walker program (internal/exp/runner).
execdiff:
	$(GO) test -race -count=1 -run 'TestExecDiff|TestTrapMatrix|TestTrapMalformedBinaryRegression|TestMakeRoom|TestAllocRetry' ./internal/ctrl
	$(GO) test -race -count=1 -run TestExecPathEquivalence ./internal/exp/runner

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Perf baseline: regenerate the committed BENCH_1.json — the full
# deterministic figure set plus the hotloop executor microbenchmark.
# The deterministic figures are seed-pinned and worker-count-invariant
# (byte-identical to BENCH_0.json's); the hotloop figure carries
# wall-clock ns-per-action and the fast-path speedup, which are
# machine-dependent by nature.
bench-json:
	XCACHE_BENCH_WORKERS=8 $(GO) run ./cmd/xcache-bench -scale 25 -hotloop -json BENCH_1.json >/dev/null

# The original perf baseline, without the wall-clock hotloop figure:
# regenerating it on an unchanged tree must be byte-identical to the
# checked-in copy, which is the result-invariance proof speed PRs rely
# on (ROADMAP item 1).
bench-json-0:
	XCACHE_BENCH_WORKERS=8 $(GO) run ./cmd/xcache-bench -scale 25 -json BENCH_0.json >/dev/null

# Perf gate: re-run the evaluation and compare against the committed
# BENCH_1.json. Deterministic figures must match exactly; the hotloop
# fast-path speedup may not regress more than 5%. Fails (exit 1) on
# either violation.
bench-diff:
	XCACHE_BENCH_WORKERS=8 $(GO) run ./cmd/xcache-bench -scale 25 -hotloop -bench-diff BENCH_1.json >/dev/null

ci: verify race faultsmoke soak servesmoke slosmoke fuzz-smoke litmus execdiff
