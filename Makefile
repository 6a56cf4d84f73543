# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

# Pinned third-party analyzer versions; CI installs exactly these, and
# the local lint target tells you the same pin when the tool is absent.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build examples test race goldens goldens-check bench bench-module fuzz smoke fmt vet check lint ci

all: build

build:
	$(GO) build ./...

examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# STRESS names the tests of the writer-led group commit, the inline get
# and the client's held turn (its hold state has one owner goroutine and
# no lock, so the race detector is its guard): each runs twenty times
# under the race detector.
STRESS = TestLogGroupCommitWritersShareSyncs|TestLogFailedSyncFailsExactlyItsWrites|TestLogCloseReleasesWaitingWriters|TestInlineGet|TestStoredObjectsGaugeAfterShardPut|TestTCPHoldWritesEachPeerOnce|TestTCPFailedFlushDropsAndRedials|TestTCPBuffersOverBoundReleased|TestClientTurnWritesBurstOnce

race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 -run '$(STRESS)' ./internal/store ./internal/core ./internal/transport .
	$(GO) test -count=1 -run 'TestDirectoryLiveCluster' .
	$(GO) test -run 'TestFlasksdRESPGatewaySmoke|TestFlasksdObsSmoke|TestFlasksdRetiredFlags' -count=1 ./cmd/flasksd

# goldens rewrites internal/lab/testdata/*.golden (the -quick tables, at
# seed 42, of every row of lab.Experiments that names goldens) from this
# tree. Only for a change that is meant to move them; go test ./...
# compares.
goldens:
	$(GO) test ./internal/lab -run Golden -update

# goldens-check compares the pinned lab tables and wire frames: what a
# behaviour-preserving change rests on. TestGoldenTables skips under
# -short, so the race target never reaches it.
goldens-check:
	$(GO) test -count=1 -run 'TestGoldenTables|TestGoldenFrames' ./internal/lab ./internal/wire

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# fuzz mutates the wire decoder's inputs and the repair exchange's two
# stores for two minutes each (the nightly fuzz job); the test run only
# replays their seeds. Not part of ci. A failing input lands in the
# package's testdata/fuzz, which then replays as a seed.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeBinary -fuzztime=2m ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzReconcile -fuzztime=2m -fuzzminimizetime=5s ./internal/antientropy

# bench-module checks that the benchmark (a module of its own under
# bench/, which ./... does not reach) still compiles against the API,
# and that the replay smoke reads every put-budget layer nonzero.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...
	$(GO) test -C bench -run TestReplaySmoke ./traced

# smoke runs every experiment once at the reduced scale; each row of
# lab.Experiments carries its gate, and any finding is exit status 1.
smoke:
	$(GO) run ./cmd/flaskbench -exp all -quick -json BENCH_gates.json

# check runs the repo's own invariant analyzers (wire table, event
# loop, ctx plumbing, lock holds). Zero findings or the build fails.
check:
	$(GO) run ./cmd/flaskscheck ./...

# lint = repolint + flaskscheck always, plus staticcheck/govulncheck
# when installed (they need network to install, so offline runs skip
# them loudly instead of failing).
lint: check
	$(GO) run ./cmd/repolint README.md ROADMAP.md PAPER.md PAPERS.md CHANGES.md docs/ARCHITECTURE.md .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt vet lint build examples race goldens-check bench-module bench smoke
