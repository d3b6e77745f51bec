# Developer entry points. Everything is standard library; plain `go build
# ./...` always works — these targets just package the common invocations.

GO ?= go

.PHONY: build test race bench benchcmp baseline vet clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench: figure and per-layer micro-benchmarks + the full experiment suite,
# merged into one BENCH.json (wall clock per experiment, simulated
# events/sec, allocations, headline figure metrics).
bench:
	$(GO) test -run '^$$' -bench . -benchmem | tee gobench.txt
	$(GO) test -run '^$$' -bench 'LAPICInjectAckEOI|TranslateDMA|RouteDMA|MeterCharge|PoolSubmit' -benchmem \
		./internal/interrupts/ ./internal/iommu/ ./internal/pcie/ ./internal/cpu/ | tee -a gobench.txt
	$(GO) run ./cmd/sriovsim -all -parallel 0 -q -gobench gobench.txt -bench-out BENCH.json > /dev/null
	@echo "wrote BENCH.json"

# benchcmp: gate the BENCH.json from `make bench` against the committed
# baseline (exit 1 on regression).
benchcmp:
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH.json

# baseline: re-record the committed baseline from the current tree.
baseline: bench
	cp BENCH.json BENCH_baseline.json
	@echo "updated BENCH_baseline.json"

clean:
	rm -f gobench.txt BENCH.json *.cpu.pprof *.heap.pprof
