GO ?= go

.PHONY: check build fmt vet test race staticcheck fuzz cover bench bench-smoke serve-smoke shard-smoke chaos-smoke learn-smoke experiments golden loc

# check is the full CI gate: vet, build, the default test suite (unit +
# determinism + golden, in shuffled order), and the race-detector pass over
# the concurrent packages (the experiment engine, the bench cells it runs,
# the simulator they share, and the decision server), plus a repeated race
# pass over the online learner, whose recycled Q-table arenas concurrent
# decide frames read, over the overload bound, over the allocation pins
# (the device session's among them: every attempt of either client passes
# one request value, which must stay off the heap), over the device
# session's refusal of malformed answers, over the binary fronts' window
# pins, since every request frame of a connection shares its window
# state, over the server session's diet: its live heap, its
# allocations up to the first answer and its byte-wide replay cache, over
# the binary client's send side: concurrent calls sharing one write, and a
# warmed open borrowing its call scratch, and over the fleet's mid-run
# event schedule, whose controller and held devices share its gates.
check: fmt vet build test race

build:
	$(GO) build ./...

# fmt fails when any Go file is not gofmt-formatted, naming the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools via `go run`, so it needs module
# network access (CI has it; offline dev boxes can skip this target).
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# -shuffle=on randomizes test order within each package so hidden
# inter-test state can't survive unnoticed.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/bench/... ./internal/sim/... ./internal/fault/... ./internal/hwpolicy/... ./internal/serve/... ./internal/obs/... ./internal/shard/...
	$(GO) test -race -count=10 -run 'Learn|AllocFree|ClientAllocs|Malformed|Overload|Window|SessionLiveHeap|SessionCreateAllocs|ReplayCacheTopLevel|OpenSessionAllocs|SharesWrite|FleetEvents' ./internal/serve ./internal/shard

# fuzz runs the fuzz targets for a short smoke window each; raise FUZZTIME
# for a longer campaign.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/hwpolicy -run '^$$' -fuzz FuzzAccelRegisterFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzRingRoute -fuzztime $(FUZZTIME)

# cover enforces the coverage floor (measured at 84.8% when the gate was
# introduced; the floor leaves headroom for timing-dependent paths).
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) tool cover -func=coverage.out | tail -1 | \
		awk -v floor=$(COVER_FLOOR) '{gsub(/%/, "", $$NF); if ($$NF+0 < floor) {printf "coverage %.1f%% below floor %.1f%%\n", $$NF, floor; exit 1}}'

# bench measures the hot-path benchmark suite (internal/bench/perf.go, the
# kernels behind README's Performance table) with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/bench

# bench-smoke compiles and runs every benchmark exactly once — a fast CI
# guard that the benchmark code itself stays green.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The end-to-end smokes build the real binaries into their own directory
# under SMOKE and run them there, so scrapes and checkpoints land beside
# them. Each smoke starts from an empty directory: serve-smoke's pmserve
# must train and save a fresh checkpoint, not load the last run's.
SMOKE := .smoke

# serve-smoke is the end-to-end binary check: start pmserve (HTTP + binary
# listeners, checkpoint path), drive a fleet at it with pmload over HTTP
# and then over the binary protocol (pmload polls /healthz first and exits
# non-zero on any device error or a decision count other than
# devices×periods), scrape /metrics and require populated decide-path
# stage histograms on both transports, the JSON metrics snapshot, and the
# fresh-checkpoint event, then SIGTERM pmserve and require a clean exit
# and a written checkpoint.
serve-smoke:
	rm -rf $(SMOKE)/serve && mkdir -p $(SMOKE)/serve
	$(GO) build -o $(SMOKE)/serve/pmserve ./cmd/pmserve
	$(GO) build -o $(SMOKE)/serve/pmload ./cmd/pmload
	set -e; cd $(SMOKE)/serve; \
	./pmserve -addr 127.0.0.1:7421 -listen-bin 127.0.0.1:7422 -quick -checkpoint policy.ckpt & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null' EXIT; \
	./pmload -addr http://127.0.0.1:7421 -devices 50 -periods 200; \
	./pmload -addr http://127.0.0.1:7421 -proto bin -bin-addr 127.0.0.1:7422 -devices 50 -periods 200; \
	curl -fsS -o metrics.prom http://127.0.0.1:7421/metrics; \
	grep -q '# TYPE serve_decide_stage_ns histogram' metrics.prom; \
	for stage in http backend bin bin_decode bin_write; do \
		grep -E "serve_decide_stage_ns_count\{stage=\"$$stage\"\} [1-9][0-9]*" metrics.prom >/dev/null \
			|| { echo "stage $$stage histogram empty"; exit 1; }; \
	done; \
	grep -E '^serve_decisions_total [1-9][0-9]*' metrics.prom >/dev/null; \
	grep -E '^serve_bin_frames_total [1-9][0-9]*' metrics.prom >/dev/null; \
	curl -fsS -H 'Accept: application/json' http://127.0.0.1:7421/metrics | \
		python3 -c 'import json,sys; m=json.load(sys.stdin); assert m["decisions"] > 0, m'; \
	curl -fsS http://127.0.0.1:7421/debug/events | \
		python3 -c 'import json,sys; e=json.load(sys.stdin); assert e["total"] >= 1 and any(x["kind"]=="checkpoint" for x in e["events"]), e'; \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	trap - EXIT; \
	test -s policy.ckpt

# chaos-smoke replays seeded fault schedules (drops, partial writes,
# latency spikes) against a live server under the race detector, including
# a mid-run crash restart and a graceful drain restart, then the sharded
# rebalance (one shard removed, one added mid-run), and fails unless every
# decision is acked exactly once and byte-identical to a fault-free oracle.
# The assertions live in the harness verdicts (serve.RunChaos,
# shard.RunRebalance).
chaos-smoke:
	$(GO) run -race ./cmd/pmload -chaos -proto bin -devices 6 -periods 80 -restart crash
	$(GO) run -race ./cmd/pmload -chaos -proto json -devices 4 -periods 60 -restart drain
	$(GO) run -race ./cmd/pmload -shard-chaos -proto bin -kill -shards 3 -devices 8 -periods 90 -shard-faults
	$(GO) run -race ./cmd/pmload -shard-chaos -proto json -shards 2 -devices 6 -periods 60

# learn-smoke runs the training-while-serving harness under the race
# detector: a seeded fleet split into learning and frozen-control arms
# against an online-learning server, run twice. pmload -learn exits
# non-zero unless updates were applied losslessly, both runs produced
# identical decision traces and bit-identical learned checkpoints, and the
# learned checkpoint reloads into a servable model.
learn-smoke:
	$(GO) run -race ./cmd/pmload -learn -devices 8 -periods 120

# shard-smoke is the sharded end-to-end binary check: two pmserve shards,
# a pmrouter fronting them on HTTP + binary (-wait-shards holds it until
# both shards answer /healthz), the same pmload fleets serve-smoke runs,
# aimed at the router, then a scrape of the router's merged /metrics
# requiring a nonzero decide count on EVERY shard, the merged fleet
# counters and stage histograms, the router's own front series (frames
# and the bin and http stages, so a router that stops serving through the
# shared fronts fails), and the JSON rollup, then clean SIGTERM exits,
# router first.
shard-smoke:
	rm -rf $(SMOKE)/shard && mkdir -p $(SMOKE)/shard
	$(GO) build -o $(SMOKE)/shard/pmserve ./cmd/pmserve
	$(GO) build -o $(SMOKE)/shard/pmrouter ./cmd/pmrouter
	$(GO) build -o $(SMOKE)/shard/pmload ./cmd/pmload
	set -e; cd $(SMOKE)/shard; \
	./pmserve -addr 127.0.0.1:7441 -listen-bin 127.0.0.1:7442 -quick -epoch 1 & \
	S0=$$!; \
	./pmserve -addr 127.0.0.1:7443 -listen-bin 127.0.0.1:7444 -quick -epoch 2 & \
	S1=$$!; \
	./pmrouter -addr 127.0.0.1:7440 -listen-bin 127.0.0.1:7439 -ring-seed 1 -wait-shards 60s \
		-shard s0=127.0.0.1:7442@127.0.0.1:7441 -shard s1=127.0.0.1:7444@127.0.0.1:7443 & \
	R=$$!; \
	trap 'kill $$R $$S0 $$S1 2>/dev/null' EXIT; \
	./pmload -addr http://127.0.0.1:7440 -devices 50 -periods 200; \
	./pmload -addr http://127.0.0.1:7440 -proto bin -bin-addr 127.0.0.1:7439 -devices 50 -periods 200; \
	curl -fsS -o router_metrics.prom http://127.0.0.1:7440/metrics; \
	for s in s0 s1; do \
		grep -E "router_shard_decisions_total\{shard=\"$$s\"\} [1-9][0-9]*" router_metrics.prom >/dev/null \
			|| { echo "shard $$s served no decisions"; exit 1; }; \
	done; \
	grep -E '^serve_decisions_total [1-9][0-9]*' router_metrics.prom >/dev/null; \
	grep -q '# TYPE serve_decide_stage_ns histogram' router_metrics.prom; \
	grep -E '^router_sessions_created_total [1-9][0-9]*' router_metrics.prom >/dev/null; \
	grep -E '^router_bin_frames_total [1-9][0-9]*' router_metrics.prom >/dev/null; \
	for stage in bin http; do \
		grep -E "router_decide_stage_ns_count\{stage=\"$$stage\"\} [1-9][0-9]*" router_metrics.prom >/dev/null \
			|| { echo "router stage $$stage histogram empty"; exit 1; }; \
	done; \
	curl -fsS -H 'Accept: application/json' http://127.0.0.1:7440/metrics | \
		python3 -c 'import json,sys; m=json.load(sys.stdin); assert m["decisions"] > 0, m; assert len(m["per_shard"]) == 2, m'; \
	kill -TERM $$R; wait $$R; \
	kill -TERM $$S0 $$S1; wait $$S0 $$S1; \
	trap - EXIT

# experiments regenerates the full evaluation through the testing harness.
experiments:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# golden re-blesses testdata/*.golden after an intentional model change.
golden:
	$(GO) test ./internal/bench -run TestGoldenOutput -update

# loc prints the non-test Go lines of every package in the root module
# (the lines of its non-_test.go files, as wc -l counts them) and their
# total: the per-package sizes a change's description quotes before and
# after.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk 'NF > 1 { n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
			printf "%6d  %s\n", n, $$1; total += n } END { printf "%6d  total\n", total }'
