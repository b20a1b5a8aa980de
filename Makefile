GO ?= go

.PHONY: all build test vet race flake-gate bench-test ci bench-kernels serve-smoke obs-smoke fuzz-smoke graph-fuzz graph-fuzz-soak cluster-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet first runs the source rules (TestSourceRules in the root
# package): every config field has a caller outside its package, no
# deleted flag reappears in this file, the scripts or the docs, no
# Core() escape outside benchmark/, every HTTP mux inside
# internal/telemetry, no sync.Pool outside internal/tensor's one
# recycler but core's plan storage and edgetpu's GEMM scratch, every
# span stage an obs.Stage* constant and every such constant emitted,
# Accept(), frame readers and bufio only in the server's front door,
# client and framing, no package-level var without a stated reason
# (error sentinels aside), no switch naming several operators of
# core's operator table, or several wire operator types, C API
# operators or fuzzer node kinds, outside the table's file,
# protocol.go's String and the fuzzer's generator, and (test-only-api)
# no exported name in internal/ that only its own package or only tests
# read, unless its allow-list gives a reason. It also
# fails on any file gofmt would rewrite, and vets the benchmark module,
# which builds the internal config structs by field name: a renamed
# field fails here, not only in bench-test.
vet:
	$(GO) test -count=1 -run '^TestSourceRules$$' .
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# race runs the full suite under the race detector; the concurrent
# telemetry registry and scheduler paths are the interesting targets.
race:
	$(GO) test -race ./...

ci: vet race flake-gate serve-smoke obs-smoke fuzz-smoke graph-fuzz cluster-smoke bench-kernels bench-test

# flake-gate reruns the serving and cluster suites, the runtime's
# result free-list hammers (TestReleaseHammer; TestGraphReleaseHammer,
# whose concurrent graph submissions release dead intermediates to the
# free list the others draw on) and the precise operators'
# shared-buffer tests, whose split codes are pooled scratch put back
# while other tasks may still run, twenty times under the race detector
# (~1 min on 2 cores). The request path's ordering oracles
# (TestReplyIsLast, TestRouterReplyIsLast), the pool-ownership hammers
# and the trace/flight-recorder tests are all timing-sensitive by
# nature: a reply written before its bookkeeping, or a buffer released
# while still read, fails here long before it fails once.
flake-gate:
	$(GO) test -race -count=20 ./internal/server ./internal/cluster
	$(GO) test -race -count=20 -run 'TestReleaseHammer|TestGraphReleaseHammer|TestMatVecPreciseSharedBuffer|TestMatMulPreciseSharedBuffer' ./internal/core

# bench-test runs the repo benchmark's own suite (unit tests plus a 1 s
# smoke of every workload, checksums and NoBatch bit-identity included);
# benchmark/ is its own module, so 'go test ./...' at the root skips it.
bench-test:
	cd benchmark && $(GO) test ./...

# graph-fuzz is the differential op-graph fuzzer's CI slice: 200
# seeded random instruction DAGs, each executed through the optimized
# kernels, the frozen ops_ref kernels, and one op at a time over the
# wire, at dispatch worker counts {1,4,8} and under a randomized fault
# plan — bit-identical results and virtual makespans required
# everywhere. Deterministic for the fixed seed; a failure prints a
# minimized repro replayable with 'gptpu-fuzz -case <seed>'.
graph-fuzz:
	$(GO) run ./cmd/gptpu-fuzz -seed 1 -cases 200

# graph-fuzz-soak is the long version for hunting new divergences.
graph-fuzz-soak:
	$(GO) run ./cmd/gptpu-fuzz -seed 1 -cases 4000 -v

# serve-smoke builds the gptpu-serve daemon, boots it on an ephemeral
# port, round-trips a client GEMM, and asserts a clean drain on
# SIGTERM — the serving layer's end-to-end liveness gate.
serve-smoke:
	GO="$(GO)" sh scripts/serve-smoke.sh

# cluster-smoke is the cluster serving layer's end-to-end gate: three
# sharded daemons behind a gptpu-router on loopback serve mixed soak
# traffic under a seeded transient-fault plan while one daemon is
# SIGTERMed mid-soak; the script asserts the aggregate health probe,
# failover absorption, the membership census and metric families
# (among them the router front door's gptpu_cluster_bytes_read_total,
# whose sample must be non-zero, and gptpu_cluster_bytes_written_total),
# and trace-ID propagation through the router hop (the router's flight
# dump shares IDs with the union of the three daemons' dumps).
cluster-smoke:
	GO="$(GO)" sh scripts/cluster-smoke.sh

# obs-smoke is the observability soak: a chaos daemon with tracing on
# serves concurrent soak traffic, then the script asserts the stage
# histogram on /metrics counted the traced requests, /debug/flight
# serves recent waterfalls, the flight dump parses and attributes at
# least one request to a fault-triggered retry, the merged Chrome
# trace carries request lanes, and tracing overhead stays in budget.
obs-smoke:
	GO="$(GO)" sh scripts/obs-smoke.sh

# fuzz-smoke gives each fuzz target a short budget ('go test -fuzz'
# accepts exactly one target per invocation, hence one line each):
# the wire-protocol frame decoder, the model-format decoder, the
# conv2D and GEMM-panel fast-path/reference equivalence oracles, the
# float reference GEMM against the blocked loop it replaced (zeros,
# infinities and NaN among the values), and the indexed first fit
# against the linear gap walk.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 5s ./internal/model
	$(GO) test -run '^$$' -fuzz 'FuzzConv2DEquiv' -fuzztime 5s ./internal/edgetpu
	$(GO) test -run '^$$' -fuzz 'FuzzConv2DGemmEquiv' -fuzztime 5s ./internal/edgetpu
	$(GO) test -run '^$$' -fuzz 'FuzzGemmBits' -fuzztime 5s ./internal/blas
	$(GO) test -run '^$$' -fuzz 'FuzzFirstFit' -fuzztime 5s ./internal/timing

# bench-kernels is the kernel-substrate benchmark smoke: every naive vs
# optimized instruction microbenchmark runs once (-benchtime 1x) so CI
# catches kernels that crash, allocate unboundedly, or lose their
# reference twin without paying for stable timings. The GEMM panel
# shapes (GMAC/s) ride the same smoke; the Tensorizer's host passes
# follow, then the CPU baselines (the float reference GEMM at 32³, 128³
# and 512³, the FBGEMM-style int8 GEMM) and first fit on a fragmented
# resource.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Benchmark(Conv2D|FullyConnected|Add|Tanh|Crop|Mean|Max)' -benchtime 1x ./internal/edgetpu
	$(GO) test -run '^$$' -bench 'Benchmark(Analyze|QuantizeInto)' -benchtime 1x ./internal/quant
	$(GO) test -run '^$$' -bench 'Benchmark(Gemm|Int8Gemm)$$' -benchtime 1x ./internal/blas
	$(GO) test -run '^$$' -bench 'BenchmarkAcquireSpanFragmented' -benchtime 1x ./internal/timing

clean:
	$(GO) clean ./...
