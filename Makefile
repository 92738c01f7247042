GO ?= go

.PHONY: build vet staticcheck test race bench bench-smoke bench-json bench-gate bench-e2e bench-e2e-smoke obs-smoke slo-smoke fleet-smoke fuzz-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is installed; otherwise it degrades
# to a note (the container has no network to fetch it) and verify
# relies on vet + race instead.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet + -race cover the gate)"; \
	fi

test:
	$(GO) test ./...

# race runs the benchmark package's race tests on their own, after
# every other package's: its smoke runs an open-loop load generator
# with a 1 ms lateness gate, which a 2-CPU host cannot hold while the
# other packages' race-instrumented tests share the CPUs.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^safecross/benchmark$$')
	$(GO) test -race ./benchmark/

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-smoke runs the serving and inference benchmarks exactly once:
# enough to catch a broken benchmark or a serving-plane regression (the
# memory-pressure benchmark asserts zero drops and real eviction/reload
# churn; the Fig8 benchmark drives the batched workspace path; the
# detect-eval benchmark asserts the pooled score path stays
# allocation-free at steady state; the Fig3 framework-warm benchmark
# asserts the same of the camera front end — scene detection, VP and
# the clip ring) without paying for a full measurement run. The
# detect-eval assertion is exact zero, which holds with one kernel proc
# (tensor reads GOMAXPROCS at start-up; on more, every split kernel
# hands the pool a closure and a WaitGroup), so that benchmark is
# pinned to one here and in bench-json.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkServe|BenchmarkFig8_SlowFastInference|BenchmarkFewshotAdapt|BenchmarkFig3_VPPipeline|BenchmarkSceneDetect' -benchtime=1x .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkDetectEval' -benchtime=1x .

# bench-json measures the per-frame hot paths (the camera front end —
# scene detection and VP — the Conv3D eval kernel at SlowFast's five
# shapes, the full and the streaming SlowFast forward over a sliding
# clip, batched Fig8 inference, the serving plane, detector eval, and
# few-shot adaptation) with allocation tracking and records them in
# BENCH_infer.json; the file's
# previous contents roll into a "previous" field, so each refresh
# carries its own before/after. -require makes a silently skipped hot
# path (a bad -bench regex) fail the target instead of writing a
# report with a hole in it.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig3_VPPipeline|BenchmarkSceneDetect|BenchmarkConv3DEval|BenchmarkSlowFastStream|BenchmarkFig8_SlowFastInference|BenchmarkServe|BenchmarkFewshotAdapt' -benchmem . && \
	  GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkDetectEval' -benchmem . ; } | $(GO) run ./cmd/benchjson -out BENCH_infer.json -require 'BenchmarkFig3_VPPipeline/process,BenchmarkFig3_VPPipeline/framework-warm,BenchmarkSceneDetect,BenchmarkConv3DEval,BenchmarkSlowFastStream/full,BenchmarkSlowFastStream/stream,BenchmarkFig8_SlowFastInference,BenchmarkServe_MultiIntersection,BenchmarkDetectEval,BenchmarkFewshotAdapt'

# bench-gate fails when a per-frame hot path allocates more per op
# than BENCH_infer.json records: the streaming and full SlowFast
# forward, the Conv3D eval kernel, the camera front end and scene
# detection, at a fixed iteration count so a one-time cost is spread
# the same way on every run. Only allocs/op is gated; ns/op on a
# shared host is too noisy for a hard bound.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkSlowFastStream|BenchmarkConv3DEval|BenchmarkFig3_VPPipeline|BenchmarkSceneDetect' -benchmem -benchtime=200x . | $(GO) run ./cmd/benchjson -compare BENCH_infer.json

# bench-e2e runs the repository's benchmark (BENCHMARK.json): all three
# workloads on the whole fleet topology, untraced then traced, on two
# seeds — about ten minutes. benchmark/README.md says how to read it.
bench-e2e:
	benchmark/run.sh

# bench-e2e-smoke is its one-second form: every workload and a traced
# run must start, serve, fail over, verify its verdicts against the
# reference replay and print every declared metric.
bench-e2e-smoke:
	$(GO) test -run Smoke -count=1 ./benchmark/

# obs-smoke boots the RSU command with its debug listener
# (-debug-addr) and a traced demo vehicle, scrapes /metrics and
# /traces while the feeds run, and asserts the key telemetry series
# (queue-wait, batch-size, switch-cost, RSU broadcast latency, SLO
# burn-rate gauges), a fully tiled per-request trace, a cross-process
# stitched trace (frame root + vehicle receive sharing one trace id),
# and the bounded /traces?n=&terminal= query surface.
obs-smoke:
	$(GO) test -run TestObsSmoke -count=1 ./cmd/safecross-rsu/

# slo-smoke is the SLO-focused alias: the same smoke suites exercise
# the burn-rate engine end to end — obs-smoke asserts slo_burn_rate /
# slo_alert_active series on a live /metrics, fleet-smoke kills a node
# and asserts the fleet-reassign alert raises and clears through
# failover (slo_alert_transitions_total reaching exactly 2).
slo-smoke: obs-smoke fleet-smoke

# fleet-smoke boots a three-node fleet (8 intersections, a replicated
# coordinator — 1 primary + 2 standbys, WAL-backed — and
# per-intersection retry vehicles), kills the primary coordinator
# mid-run (the takeover must happen by QUORUM election, not timeout),
# crashes a node under the new primary, then kills primary AND both
# standbys at once and restarts them from their write-ahead logs
# (epochs must resume above the pre-crash stamp with zero runner
# churn), and asserts every intersection keeps receiving advisories
# (zero unserved) with exactly one promotion and one failover —
# scraping the federated fleet::* per-node series (with exact
# histogram-merge counts), fleet_promotions_total /
# fleet_quorum_{votes,promotions}_total, fleet_wal_replays_total,
# fleet_failovers_total, fleet_nodes_live, fleet_scrape_age_seconds,
# the slo_burn_rate gauges (asserting the fleet-reassign alert raises
# on the failover and clears after recovery), and a cross-node
# stitched trace on /traces/fleet off the coordinator debug listener.
fleet-smoke:
	$(GO) test -run TestFleetSmoke -count=1 ./cmd/safecross-fleet/

# fuzz-smoke runs every native fuzz target for a short bounded burst:
# the rsu wire-message decode/validate/re-encode round trip (seeded by
# the committed corpus under internal/rsu/testdata/fuzz), the
# control-plane WAL replayer (arbitrary byte soup must never panic and
# recovery must be idempotent), the zero-skipping Conv3D eval forward
# (bit-identical to the im2col + matmul Forward on any geometry) and the
# streaming SlowFast forward (== to the full forward on any window
# sequence).
# Seconds, not minutes — enough to catch a property regression; leave
# the fuzzer running longer by hand to hunt new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 5s ./internal/rsu/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzConv3DEvalMatchesForward -fuzztime 5s ./internal/nn/
	$(GO) test -run '^$$' -fuzz FuzzForwardStreamMatchesForward -fuzztime 5s ./internal/video/

# verify is the extended gate: everything must compile, lint clean, and
# pass the full suite under the race detector (the serving and RSU
# planes are concurrent by design; -race covers the sharded telemetry
# counters too), plus a single-iteration pass over the serving and
# front-end benchmarks, the hot paths' allocation gate, the end-to-end
# benchmark's smoke, the
# observability / SLO / fleet-failover smoke tests (slo-smoke folds
# obs-smoke and fleet-smoke in, so listing it here covers all three
# without re-running any of them), and a short burst of every fuzz
# target.
verify: build vet staticcheck race bench-smoke bench-gate bench-e2e-smoke slo-smoke fuzz-smoke
