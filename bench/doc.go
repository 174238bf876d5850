// Command bench is the fleet authorization benchmark. It measures the
// multi-tenant authorization path, POST /v1/fleet/authorize, end to end
// over HTTP, and replays the same requests in process to cost each layer.
// This file is its specification.
//
// # Running
//
// From the repository root:
//
//	bash bench/run.sh -workload <name|all> [-seed 1] [-seconds 0] [-trace 0|1] [-json report.json] [-trace-out spans.jsonl]
//
// The benchmark is a Go module of its own that requires the repository's
// module through a relative replace directive. run.sh builds it with
// `go build` into .bench_build/, keeping the Go build cache there too, and
// runs the binary. A binary built by `go build` inside a git checkout
// records vcs.revision and vcs.modified, which every report prints; under
// `go run`, or outside a checkout, both read "unknown". Build first when
// the revision matters.
//
// -seconds 0, the default, runs each workload's pinned shape: a fixed
// number of steps, whose decision digest at -seed 1 must equal the one
// pinned below. -seconds N instead runs steps until N seconds have passed:
// each sender starts a last step once the time is up, and on that step the
// chained homes fire their chain. Flags also take the double-dash form, so
// the benchmark can be run as
//
//	bash bench/run.sh --workload bulk_mixed --seed 7 --seconds 20 --trace 0
//
// Every run prints, per workload, its correctness checks and its metrics
// with units, then as the last line of standard output one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end-to-end metrics, or with -trace 1 the per-layer metrics, each as
// {"value", "unit"}. With -workload all each metric name is prefixed by
// its workload's. The exit status is 1 when a correctness check failed, 2
// on bad flags; a run reads and writes nothing outside the checkout unless
// -json or -trace-out name such a file.
//
// # Load
//
// One process runs everything: the cloud server of internal/cloud over the
// fleet of internal/fleet, with FleetWorkers 0 so a batch fans out over
// GOMAXPROCS, and two client goroutines, each logged in over its own HTTP
// connection. The fleet has 10,000 homes on 16 shards, as cmd/fleetload
// uses. The server sees only the generated requests.
//
// The generator is a port of cmd/fleetload's, owned by the benchmark so
// that no later change can alter the load it is measured with. Home i draws
// from its own RNG seeded with seed + 9973·i; spoofed and chained homes are
// pure hashes of the home ID. Client w sends the homes i ≡ w (mod 2) in
// order, step by step, and flushes its batch at every step end, so each
// home's stream is ordered and its decisions depend on the seed alone, not
// on client, batch or shard counts. Every decision folds two tags (allowed
// or denied, sensitive or not) into its home's FNV-64 digest, a failed item
// folds the tag 'e', and the per-home digests fold in home order into the
// run's digest.
//
// # Workloads
//
// bulk_mixed: closed loop, 2 clients, 256 items per request, 70% sensitive
// items carrying an inline scene, 30% of those attack scenes. Per-item
// work (scene decode, build, push, tree judge) dominates and the HTTP
// envelope is amortised over 256 items: the throughput workload. Pinned:
// 60 steps, digest bdf5ab08a3dcad28.
//
// interactive_open: open loop, seeded Poisson arrivals at 1,600 requests/s
// (800 per client), 16 items per request, the same mix. Each client sends
// a request at its due time, or as soon as its previous one returned when
// that is later, and latency runs from the due time, so a stall is charged
// to every request it delays. Per-request costs (HTTP, session and
// ownership checks, AuthorizeBatch's shard buckets and fan-out, GC pauses)
// dominate, and queueing shows. This is where ROADMAP item 3's 10 ms p99
// limit is judged. 1,600/s is about half the closed-loop capacity at 16
// items. Pinned: 40 steps, digest 53d0afb57328649c.
//
// status_reads: closed loop, 256 items per request, only status reads
// without scenes. Nothing is pushed, so every item takes the fleet's
// no-context path and no tree is walked: the control workload. A scene,
// judge, trust or sequence change should not move it, while instruction
// building and response encoding dominate. Pinned: 200 steps, digest
// c41c65af336f59e5.
//
// under_attack: closed loop, 256 items per request, 70% of sensitive items
// carry attack scenes, 10% of homes are spoofed and 10% chained. The trust
// gate fails every spoofed home closed (1,021 homes, pre-collapsed by a
// seeded replay plan sent before the timed phase, then observed on every
// push), the sequence judge blocks every same-tick chain (912 homes), and
// deny-heavy trees pay the explaining walk. Pinned: 60 steps, digest
// 9c9f8d454fb61683.
//
// # End-to-end metrics
//
// Measured with tracing off, over the HTTP run's timed phase, per
// workload. The bound is the worsening of the median, as a share, beyond
// which a change counts as a regression; BENCHMARK.json carries the same
// values.
//
//	setup_s                   s    lower  0.25  median of 9 set-ups: training, fleet build, 10k AddHome + BindHome, server start
//	setup_heap_mb             MB   lower  0.05  median live heap a set-up adds, after a forced GC
//	decisions_per_s           1/s  higher 0.25  decided items per second; pinned by the schedule on interactive_open
//	cpu_us_per_decision       us   lower  0.25  process user+sys time per decision, the frozen generator included
//	alloc_bytes_per_decision  B    lower  0.05  runtime TotalAlloc per decision
//
// decisions_per_s and cpu_us_per_decision are medians over the timed phase
// cut into 500 ms windows: a sampler goroutine reads the count of decided
// items and the process time at every cut, the first second is skipped as
// warm-up, and each window gives one rate and one process time per
// decision. The whole-run values are printed beside them. The timed phase
// runs whole steps, so it ends up to a step after -seconds; the partial
// window at the end is dropped. A run too short for a window after the
// warm-up reports the whole-run values.
//
// The host these bounds were set on (2 vCPUs of an Intel Xeon, shared with
// other tenants) changes speed for minutes at a time, with no stolen time
// reported: over one hour the process time per decision of bulk_mixed
// moved between 22 and 44 µs, all workloads together. A register-only loop
// timed alongside stayed within ±5% while a DRAM pointer chase slowed with
// the benchmark, so the drift is in the shared memory system; dividing by
// the pointer chase removed only a third of the spread, so no metric is
// normalized by it. Within a run, quarter-second windows alternate with
// the GC cycles of the 66 MB live heap, which the 500 ms windows average
// out, and the window median drops the short stalls a mean keeps. Beyond
// that, the medians of the first 5, 10, 15 and 20 s of the same runs
// spread alike, so the rest of the noise lies between runs and a longer
// run does not remove it; 20 s keeps a full comparison of two commits,
// with its set-ups and replays, under an hour. Ten runs per workload at
// 20 s, each with its own seed and the workloads interleaved, spread by
// 0.05–0.15 on decisions_per_s and cpu_us_per_decision while the host held
// one speed (0.015 on interactive_open's scheduled rate), and by 0.25–0.35
// in the sets during which it changed speed; setup_s spread by 0.07–0.3.
// The speed bounds are therefore as wide as BENCHMARK.json allows, and a
// comparison whose side spreads past a bound leaves that metric
// unresolved. Request latency is noisier still: over ten runs
// the median of bulk_mixed's two closed-loop clients jumps between its two
// modes (one request in the server, or both) with a spread of 0.40, and
// interactive_open's p99 is set by stalls of the host, spread 0.36.
// Neither fits a bound of 0.25, so both percentiles are reported as the
// load generator's per-layer metrics below, unbounded. So are the SLO
// ratio, which swings with the p99, and the failure ratio, which reads 0 on
// a healthy run and so takes no relative bound; any failed item also fails
// the digest check. The allocation and heap metrics repeat within 0.2%.
//
// # Per-layer metrics
//
// Every run reports the load generator's view and the fleet's and the
// runtime's counters from the HTTP run; these head the list below. With
// -trace 1 a run also replays the HTTP run's stream in process twice,
// each on a fresh set-up: once untraced, as the baseline, and once traced.
// The traced replay drives each request through the blocking stages
// loadgen.generate, cloud.req_encode, cloud.req_decode (encoding/json on the
// exported cloud wire types), instr.build (instr.Registry.Build),
// fleet.authorize_batch (fleet.Fleet.AuthorizeBatch), cloud.resp_encode and
// cloud.resp_decode, each a span under the request's root span, one span
// per request with its item count. After the request it runs the shadow
// stages, which call stateless functions or private replicas and never
// touch the fleet's state: trust.observe (replica trust.Engines fed the
// pushes the fleet's engines saw), core.judge.allow and core.judge.deny (a
// private core.Judger over what the fleet judged, split by verdict because
// a deny also pays JudgeExplain, whose explanation the wire drops),
// tree.predict (fleet.ModelRegistry.Judge) and seq.observe_judge (replica
// seq.Trackers). Shadow spans are marked and are no part of a request's
// self time. The two senders' blocking stages overlap, as two clients'
// requests do in the server, but shadow stages run alone, so they slow no
// blocking span with work the server never does. Spans stay in a
// preallocated slice; -trace-out writes them as JSON lines, and nothing is
// written without it. About 128 requests per replay also count their
// mallocs per stage; each of them runs alone, so its counts are its own.
//
// Each metric names the end-to-end metric it should move and where:
//
//	loadgen.latency_p50_ms              per request: closed loop from send to return, open loop from the due time
//	loadgen.latency_p99_ms              as above, with the count of requests beyond it; ROADMAP item 3's 10 ms limit, judged on interactive_open
//	loadgen.slo_met_ratio               requests within 10 ms; a failed request counts as a miss
//	loadgen.failed_ratio                failed items over attempted items
//	loadgen.lag_p99_ms                  how late sends started (open loop: after the due time; closed: after the previous return); grows when the host saturates
//	fleet.pushes_per_decision           from iotsid_fleet_context_pushes_total; explains the rows below, as do the next three
//	fleet.fail_closed_ratio             from iotsid_fleet_decisions_total{outcome="fail_closed"}
//	trust.low_trust_homes               the fleet's LowTrustHomes
//	seq.anomalies                       the fleet's SeqAnomalies
//	runtime.gc_cycles_per_1k_decisions  loadgen.latency_p99_ms on interactive_open and bulk_mixed
//	runtime.gc_pause_p99_ms             from the MemStats pause ring
//	loadgen.generate_us_per_item        traced: generator time per item; frozen, subtract it when reading cpu_us_per_decision
//	cloud.req_decode_us_per_item        decisions_per_s, cpu_us_per_decision; moves on bulk_mixed and under_attack, near zero on status_reads
//	cloud.req_decode_allocs_per_item    as above
//	cloud.req_bytes_per_item            request body bytes per item
//	cloud.resp_encode_us_per_item       decisions_per_s on status_reads
//	cloud.http_overhead_us_per_request  HTTP service-time p50 minus the replay's blocking-span p50; loadgen.latency_p50_ms on interactive_open; on the closed-loop workloads it inherits their bimodal latency p50 and reads anywhere within ±2 ms
//	instr.build_us_per_item             decisions_per_s, alloc_bytes_per_decision; largest share on status_reads
//	instr.build_allocs_per_item         as above
//	fleet.batch_us_per_item             decisions_per_s on bulk_mixed
//	fleet.batch_allocs_per_item         alloc_bytes_per_decision
//	fleet.batch_us_per_request          loadgen.latency_p50_ms and loadgen.latency_p99_ms on interactive_open
//	fleet.heap_bytes_per_home           live heap across home registration, per home; setup_heap_mb
//	core.judge_allow_ns_per_item        judge time on allowed items per item of the workload; decisions_per_s
//	core.judge_deny_ns_per_item         the same for denied items; larger on under_attack than bulk_mixed, none on status_reads
//	core.deny_ratio                     denied over judged items
//	tree.predict_ns_per_item            ModelRegistry.Judge time per item; a tree-only change should move no end-to-end metric
//	trust.observe_ns_per_item           replica Observe time per item; decisions_per_s on under_attack only
//	seq.observe_judge_ns_per_item       replica ObserveJudge time per item; decisions_per_s on under_attack only
//	trace.overhead_ratio                traced replay wall over untraced replay wall
//
// The shadow costs are given per item of the whole workload, not per call,
// so that a layer a workload never calls reads its near-zero span cost
// rather than nothing, and so that each reads directly against
// cpu_us_per_decision. A per-call cost is the per-item cost over the share
// of items that call the layer.
//
// # Correctness
//
// Every run replays the HTTP run's stream on a fresh set-up; untraced runs
// use a reference replay that skips the JSON stages. The checks, printed
// before the metrics and all required for "correct": the replay's digest
// equals the HTTP run's; at -seed 1 with the pinned shape, the digest and
// the armed home counts equal the pinned ones; no sensitive instruction of
// a spoofed home was allowed; every spoofed home is low-trust; every chain
// tail was blocked and no chained home's benign event was; and when
// traced, the traced replay's digest equals the HTTP run's and the trust
// and sequence replicas agree with the fleet's LowTrustHomes and
// SeqAnomalies. Item and request errors, the client's 5 s timeout included,
// are counted rather than fatal: they fold 'e' into the digest, which then
// cannot match the replay's.
//
// `go test` in this directory (the repository's own `go test ./...` does
// not enter another module) checks the generator against cmd/fleetload's
// digests at their full shapes (10,000 homes × 5 steps: 284abdb8010ee900;
// 500 homes × 2 steps: d9b585056f18c11b; 500 × 5: dfb649032d153415; the
// 500-home under_attack mix × 5 steps: 3d280ed0a4a9a56e with 49 spoofed
// homes and 46 chains blocked), one against two senders, HTTP against the
// traced replay with its replicas, and the open loop's pacing on a fake
// clock.
//
// # Comparing two commits
//
// Build each side once, from a tree holding that commit's code and this
// same bench directory (run.sh leaves the binary at .bench_build/bench;
// copy it away per side), then alternate the two binaries for at least ten
// pairs per workload, changing which side runs first, with the same seeds
// and -seconds on both. Compare each side's median and quartiles per
// metric and workload against the bounds above. A side whose spread is
// wider than a bound leaves that metric unresolved.
//
// # Earlier numbers
//
// BENCH_fleet.json (11.9k decisions/s, p99 346 ms) and EXPERIMENTS.md's
// fleet table (37.7k/s, p99 56 ms) came from cmd/fleetload with other
// client counts, on unrecorded hosts, and cannot be compared with this
// benchmark's numbers. On ROADMAP item 2's 3× gap between them, the first
// answer: cmd/fleetload at commit 8a35cf4 (the fleet's introduction, before
// the trust and sequence layers) and at commit c09d294, built once each and
// alternated at GOMAXPROCS=1 on a 2-vCPU Intel Xeon host on one decision
// stream (-steps 20 -workers 2, digest e4bf6c06d5a7c797). Three pairs gave
// 31.8k–40.4k and 33.5k–41.8k decisions/s. Ten more pairs gave medians of
// 28.5k (quartiles 27.7k–29.5k) and 29.0k (27.7k–29.8k), the later commit
// winning 4 of 10: no difference. The trust wiring did not slow the
// serving path; both commits sit near EXPERIMENTS' 37.7k and far above
// BENCH_fleet.json's 11.9k, so the gap came from the host or the settings
// of that run. This benchmark cannot rerun the pairs, because it needs the
// trust and sequence layers that 8a35cf4 lacks.
package main
