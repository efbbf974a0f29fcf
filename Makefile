# Single source of truth for build/verify commands: CI invokes these same
# targets, so a green `make ci` locally means a green workflow run.

GO ?= go

# Minimum total statement coverage `make cover` enforces: 81.3% measured
# at this ratchet, minus 1pt of slack that absorbs noise while catching
# wholesale test deletions or big untested subsystems. Most cmd/* mains
# count at 0%, which drags the total below per-package numbers —
# internal/wal and internal/cluster, the replication-critical packages,
# each sit above 81%.
COVER_FLOOR ?= 80.3

.PHONY: build test test-race admission-stress vet fmt-check lint lines bench bench-smoke bench-pins rest-check perf-gate fuzz-smoke hunt-smoke recover-check cluster-check failover-check cover docs-check links-check smoke metro-smoke clean ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# admission-stress repeats, under the race detector, the tests that hold the
# engine's serial lanes to their contract — a round runs on its caller when
# the lane is idle and queues in cut order when it is not, Stop waits for
# both kinds — and the conservation/invariance tests that would see a lane
# let two rounds of one shard overlap. Ten times each: a lane bug is a
# scheduling accident, not an every-run failure. Under two minutes on a
# 2-vCPU runner.
admission-stress:
	$(GO) test -race -count=10 -run 'Lane|TestStopWaitsForInlineRound|TestShardCountInvariance|TestConcurrentStressConservation|TestRaceOutageNoLostSlices' ./internal/admission

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs staticcheck at a pinned version via `go run`, so no tool
# binary is vendored or installed into the image. The version probe keeps
# the target green in offline sandboxes (this module is dependency-free;
# staticcheck is the one network fetch in the toolchain) — hosted CI has
# network and always runs the real check.
STATICCHECK_VERSION ?= 2023.1.7

lint:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) unfetchable (offline); skipping"; \
	fi

# lines reports the sizes ROADMAP aim 2 tracks: non-test Go lines under
# internal/ + cmd/ and for the four packages of the round path, test Go
# lines under internal/ + cmd/, and the lines of the four prose documents.
# Report only — each PR states which way the figures moved and why
# (CHANGES.md).
LINES_PKGS ?= admission cluster wal ctrlplane

lines:
	@count() { find "$$@" -name '*.go' -not -name '*_test.go' | xargs cat | wc -l; }; \
	printf 'non-test Go lines\n  %-22s %6d\n' 'internal/ + cmd/' $$(count internal cmd); \
	sum=0; for p in $(LINES_PKGS); do \
		n=$$(count internal/$$p); sum=$$((sum + n)); \
		printf '  %-22s %6d\n' internal/$$p $$n; \
	done; \
	printf '  %-22s %6d\n' 'round path (the four)' $$sum; \
	printf 'test Go lines\n  %-22s %6d\n' 'internal/ + cmd/' $$(find internal cmd -name '*_test.go' | xargs cat | wc -l); \
	printf 'prose lines\n'; sum=0; for d in DESIGN.md EXPERIMENTS.md README.md ARCHITECTURE.md; do \
		n=$$(wc -l < $$d); sum=$$((sum + n)); \
		printf '  %-22s %6d\n' $$d $$n; \
	done; \
	printf '  %-22s %6d\n' 'prose (the four)' $$sum

# bench regenerates every figure/table artifact with real timing. The
# micro-benchmarks are developer tools: nothing judges their numbers (the
# one perf judgement is perf-gate, below).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once — the CI
# guard that no figure/table regeneration path has bit-rotted. No timing
# is read off it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-pins runs the end-to-end benchmark's six workloads once, at the seed
# and size benchmark/fingerprints.json pins, and fails unless every pass
# reports its decisions fingerprint-correct with no failed operation. It is
# the cheap half of the benchmark (no timing judgement): a change that moves
# one admission decision on any workload, or pushes an operation past the
# 30 s watchdog, stops here.
BENCH_WORKLOADS ?= steady-drift arrival-churn metro-cold online-durable crash-recover rest-stack

bench-pins:
	@set -e; for w in $(BENCH_WORKLOADS); do \
		out=$$($(GO) run ./benchmark --workload $$w --seed 1 --seconds 15 --trace 0 | tail -n 1); \
		echo "bench-pins: $$w $$out"; \
		echo "$$out" | grep -q '"correct":true,"failed":0' || \
			{ echo "bench-pins: $$w is not fingerprint-correct with 0 failed"; exit 1; }; \
	done
	@echo "bench-pins: six workloads fingerprint-correct"

# rest-check holds the southbound to its two round trips per epoch: three
# untraced passes and the traced pass of the rest-stack workload must be
# fingerprint-correct (the run's exit status), and the traced pass must count
# at most 6 controller requests per epoch — one epoch document per controller
# for the round, one more when something expired (the per-slice southbound it
# replaced made ≈ 24). A count, not a timing, so it holds on any runner. The
# result set stays in benchmark/out/results.json.
rest-check:
	$(GO) run ./benchmark run -workload rest-stack -seed 1 -reps 3 -trace > rest-check.out || { cat rest-check.out; rm -f rest-check.out; exit 1; }
	@awk '$$1 == "ctrlplane.program_calls_per_epoch" { seen = 1; print "rest-check:", $$1, $$2; if ($$2 + 0 > 6) exit 1 } END { if (!seen) exit 1 }' rest-check.out \
		|| { echo "rest-check: ctrlplane.program_calls_per_epoch missing or above 6"; rm -f rest-check.out; exit 1; }
	@rm -f rest-check.out
	@echo "rest-check: rest-stack correct, southbound within two round trips per epoch"

# perf-gate is the one perf judgement: the end-to-end benchmark runs on the
# committed files of BASE_REF and on this tree, and `benchmark compare`
# judges the second result set against the first with its own bounds,
# floors, quartiles and fingerprint check (exit 1: a metric worse beyond its
# bound, a larger failed share, or different decisions). The base is
# unpacked with `git archive` into a scratch directory under benchmark/out/
# — git-ignored, and on the same filesystem as this tree, so both sides pay
# the same fsync — and removed on every exit path. A head run that fails
# its own checks (a pass past its time budget, a moved decision) still gets
# compared, so the log shows by how much. BASE_REF is the one knob.
#
# -reps 3 is a measurement, not a knob: six back-to-back result sets of one
# tree per value, five consecutive self-compares each (2-vCPU shared VM, PR
# 18). One pass a side exited 0 five times of five in a calm hour and five
# of ten an hour later (rows up to +71 %); two passes three of five; three
# passes five of five, and all 30 ordered pairs of the six sets. With three
# the quartiles are the fastest and slowest pass, so a row the box moved
# reads *unresolved* (exit 0), not *worse*. The row that still can turn red
# with no change behind it is steady-drift setup_s: 30-45 ms of unnormalised
# CPU that follows the box's speed plateau (EXPERIMENTS.md).
BASE_REF ?= HEAD~1

perf-gate:
	@set -e; \
	sha=$$(git rev-parse --verify --quiet '$(BASE_REF)^{commit}') || { \
		echo "perf-gate: BASE_REF '$(BASE_REF)' does not resolve to a commit (a shallow clone needs the parent: fetch-depth 2)"; exit 2; }; \
	mkdir -p benchmark/out; out=$$PWD/benchmark/out; \
	rm -f "$$out/perf-gate-base.json" "$$out/perf-gate-head.json"; \
	base=$$(mktemp -d "$$out/perf-gate-base.XXXXXX"); \
	trap 'rm -rf "$$base"' EXIT; trap 'exit 130' INT TERM; \
	git archive "$$sha" | tar -x -C "$$base"; \
	echo "perf-gate: base $$sha"; \
	(cd "$$base" && $(GO) run ./benchmark run -seed 1 -reps 3 -out "$$out/perf-gate-base.json"); \
	echo "perf-gate: head (this tree)"; \
	rc=0; \
	$(GO) run ./benchmark run -seed 1 -reps 3 -out "$$out/perf-gate-head.json" || rc=$$?; \
	$(GO) run ./benchmark compare "$$out/perf-gate-base.json" "$$out/perf-gate-head.json" || rc=$$?; \
	exit $$rc

# fuzz-smoke gives each native fuzz target a short budget; crashes found in
# CI reproduce locally via the corpus file Go writes on failure. The loop
# discovers targets with `go test -list`, so a new Fuzz* function is in
# the smoke budget the moment it is committed — no Makefile edit to forget.
fuzz-smoke:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s $$pkg; \
		done; \
	done

# hunt-smoke is the adversarial-regression gate: CI-sized seed sweeps of
# the closed loop vs the static-reservation baseline (`scenario hunt`) on
# a heavy-tail workload — where small closed-loop regressions are known to
# exist — and on an outage archetype, where the closed loop must win
# outright (a regression under faults would be a real control bug, and the
# sweep would surface the seed). The committed reproducer then replays and
# must still regress: hunt determinism, pinned bit for bit.
HUNT_SEEDS ?= 8

hunt-smoke:
	$(GO) run ./cmd/scenario hunt -name heavy-tail -tenants 4 -epochs 12 -seeds $(HUNT_SEEDS) -seed 1
	$(GO) run ./cmd/scenario hunt -name outage -tenants 4 -epochs 10 -seeds 4 -seed 1
	$(GO) run ./cmd/scenario hunt -replay docs/reproducers/heavy-tail-ci.json

# recover-check is the crash-recovery gate: the kill-and-replay suite in
# internal/wal hard-kills the control plane at randomized epoch boundaries
# and requires the recovered decision trace, yield ledger and tracker
# state to equal an uninterrupted run bit for bit. -count=1 defeats the
# test cache — a recovery gate that silently replays a cached PASS guards
# nothing — and the explicit -timeout keeps a wedged replay from eating
# the job's whole budget. The second line holds side-by-side replay to the
# record-by-record one: one eight-domain log recovered at one, two and four
# processors under the race detector must end in the same report, log end
# and state bytes, and a planted divergence must surface at its lowest LSN.
recover-check:
	$(GO) test ./internal/wal/ -run 'TestKillAndReplay|TestCleanShutdown|TestRecoverTruncates' -count=1 -timeout 10m
	$(GO) test ./internal/wal/ -run 'TestParallelReplay' -race -cpu 1,2,4 -count=1 -timeout 10m

# cluster-check is the distributed-determinism gate: loadgen and the
# ovnes REST stack run once in-process and once against real ovnes-worker
# OS processes (internal/cluster), with one worker SIGKILLed mid-run. The
# decision tables, yield ledger and slice states must be byte-identical —
# the cluster must change throughput topology, never a decision.
cluster-check:
	./scripts/cluster_check.sh

# failover-check is the replication gate: a leader ovnes (WAL + lease +
# coordinator) is SIGKILLed mid-run while a standby ovnes tails its log;
# the standby must take the lapsed lease, replay every pre-kill round, and
# finish the run with /yield and /slices byte-identical to an uninterrupted
# single process. A second phase deposes a leader that keeps running and
# requires the workers to fence its dispatches.
failover-check:
	./scripts/failover_check.sh

# docs-check fails when a package lacks its godoc: every internal/*
# package must carry a doc.go opening with "// Package <name>", every
# cmd/* binary a "// Command <name>" comment in main.go. It also caps the
# two documents that grow with every PR: EXPERIMENTS.md at 380 lines and
# DESIGN.md at 1,469 (its length when the cap was set), so a PR that adds
# a section pays for it by trimming another (ROADMAP item 8(b)).
docs-check:
	@fail=0; \
	for cap in EXPERIMENTS.md:380 DESIGN.md:1469; do \
		f=$${cap%%:*}; max=$${cap##*:}; n=$$(wc -l < $$f); \
		[ $$n -le $$max ] || { echo "$$f: $$n lines, over its $$max-line cap"; fail=1; }; \
	done; \
	for d in internal/*; do \
		p=$$(basename $$d); \
		grep -qs "^// Package $$p " $$d/doc.go || { echo "$$d: missing doc.go package comment (want '// Package $$p ...')"; fail=1; }; \
	done; \
	for d in cmd/*; do \
		c=$$(basename $$d); \
		grep -qs "^// Command $$c " $$d/main.go || { echo "$$d: missing '// Command $$c ...' comment in main.go"; fail=1; }; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every package documented, EXPERIMENTS.md and DESIGN.md within their caps"

# links-check verifies every relative link in the repo's markdown files
# resolves to an existing file (external URLs are deliberately skipped:
# CI must not depend on the network), and that every backticked
# `pkg.Name[.Name…]` in ARCHITECTURE, DESIGN, EXPERIMENTS and README whose
# pkg is a directory under internal/ still names identifiers that
# package's non-test Go files have.
links-check:
	$(GO) run ./cmd/mdcheck

# metro-smoke is the metro-tier gate: the full >=1000-BS metro archetype
# (topology.MetroPods pod domains on one engine) driven end to end through
# loadgen's closed loop at CI-sized epochs, with the per-domain decision
# and realized-yield table pinned byte for byte. Solver refactors may move
# pivot paths but must not move a single admission decision or reservation
# at metro scale. Refresh deliberately with:
#   go run ./cmd/loadgen -scenario metro -seed 1 -epochs 4 -shards 4 -mode closed 2>/dev/null | grep -v '^#' > scripts/golden/metro_loadgen.golden
metro-smoke:
	$(GO) run ./cmd/loadgen -scenario metro -seed 1 -epochs 4 -shards 4 -mode closed > metro.raw
	grep -v '^#' metro.raw > metro.out
	diff -u scripts/golden/metro_loadgen.golden metro.out
	@rm -f metro.raw metro.out
	@echo "metro-smoke: metro decision fingerprint pinned"

# smoke executes the README quickstart commands end to end (CI-fast
# variants where the documented command also offers a longer mode), so a
# stale flag or path in the docs fails the build, not the reader.
smoke:
	./scripts/smoke.sh

# clean removes every scratch artifact the build/bench/profile targets
# drop.
clean:
	rm -f coverage.out metro.raw metro.out rest-check.out cpu.out mem.out *.pprof *.prof *.test
	rm -rf ovnes-data

# cover enforces the statement-coverage floor over the whole module. The
# empty-total guard fails loudly if `go tool cover -func` ever changes its
# output shape — an unparsed total must read as "gate broken", never as
# "coverage fine".
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	if [ -z "$$total" ]; then \
		echo "cover: could not parse the total from 'go tool cover -func' (output format changed?)"; exit 1; fi; \
	echo "total statement coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN{exit !(t>=f)}' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

ci: build vet fmt-check lint lines docs-check links-check test-race admission-stress cover fuzz-smoke recover-check cluster-check failover-check hunt-smoke smoke metro-smoke bench-pins rest-check bench-smoke perf-gate
