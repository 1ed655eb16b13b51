GO ?= go

.PHONY: all build test race vet lint fmt check bench experiments scale scale-check scale-baseline shuffle fuzz invariants soak traffic-check traffic-baseline coldstart-check coldstart-baseline overload-check overload-baseline

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shuffle randomises test execution order to surface ordering
# dependencies between tests.
shuffle:
	$(GO) test -shuffle=on ./...

# fuzz runs a short smoke of every native fuzz target (segment shapes,
# batch grouping, workload assignment, KV migration accounting, traffic
# spec parsing, tenant churn, tier specs).
fuzz:
	$(GO) test ./internal/sgmv -run '^$$' -fuzz FuzzSegmentSizes -fuzztime 10s
	$(GO) test ./internal/sgmv -run '^$$' -fuzz FuzzGroupByModel -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzAssigner -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzZipfAssigner -fuzztime 10s
	$(GO) test ./internal/kvcache -run '^$$' -fuzz FuzzKVMigration -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzTrafficSpec -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzTenantChurn -fuzztime 10s
	$(GO) test ./internal/lora -run '^$$' -fuzz FuzzTierSpec -fuzztime 10s
	$(GO) test ./internal/remote -run '^$$' -fuzz FuzzNetFaultPlan -fuzztime 10s

# vet runs the standard toolchain vet plus punica-vet, the repo's own
# analyzer suite (versionbump, scratchlife, detsim, lockorder,
# zeroalloc) enforcing the simulator's correctness contracts.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/punica-vet ./...

# invariants re-runs the test suite with runtime invariant checking
# compiled in (accounting ledgers, FCFS ordering, version monotonicity,
# leak-at-quiescence) under the race detector.
invariants:
	$(GO) test -tags punica_invariants -race ./...

# lint runs vet plus staticcheck when available (CI installs it; local
# setups without network skip it rather than fail).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fmt fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check is the tier-1 gate: formatting, static checks, build, tests.
check: fmt vet build test

# bench runs every Go benchmark once with allocation reporting — the
# hot-path smoke CI runs (the AllocsPerRun guards in the test suite are
# the hard gate; this surfaces ns/op and B/op trends).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem ./...

# experiments regenerates every paper table/figure as text.
experiments:
	$(GO) run ./cmd/punica-bench all

# scale runs the control-plane scale sweep (DESIGN.md §9) at the CI
# slice; the full grid (up to 256 GPUs x 1M requests) is
# `go run ./cmd/punica-bench scale`.
FLAGS_scale = -scale-gpus 16,64,256 -scale-requests 100000 -parallel 4
scale:
	$(GO) run ./cmd/punica-bench -scale-gpus 16,64,256 -scale-requests 100000 scale

# soak runs the everything-at-once scenario: two simulated hours of
# diurnal traffic with flash crowds, tenant churn, popularity drift,
# autoscaling and random GPU faults, fairness on (DESIGN.md §12).
soak:
	$(GO) run ./cmd/punica-bench soak

# <experiment>-check replays a gated experiment and fails if a metric
# punica-bench gates for it regresses past the threshold against the
# committed bench/BENCH_<experiment>.json:
#   scale      events/sec, sharded over -parallel 4 (DESIGN.md §11)
#   traffic    throughput, off/on stall-skew ratio, tail-p99 gain
#   coldstart  throughput, naive-vs-predist cold-start p99 gain
#   overload   shedding-on vs -off goodput retention
# The simulated sweeps are deterministic, so their 20% gates are exact
# up to the threshold. overload replays open-loop traffic through the
# live HTTP stack at 1-4x capacity in wall time (HTTP, goroutines,
# pacing timers), so its threshold is a generous 50%.
# <experiment>-baseline regenerates the committed baseline after
# intentional changes.
scale-check traffic-check coldstart-check overload-check: %-check:
	$(GO) run ./cmd/punica-bench $(FLAGS_$*) -baseline bench/BENCH_$*.json \
		-regress-threshold $(if $(filter overload,$*),0.50,0.20) $*

scale-baseline traffic-baseline coldstart-baseline overload-baseline: %-baseline:
	$(GO) run ./cmd/punica-bench $(FLAGS_$*) -json bench/BENCH_$*.json $*
