#!/bin/sh
# verify.sh — the tier-1 gate plus static analysis and the race detector.
# The decision log, the epoch store and the par worker pool are concurrent
# hot-path code; -race is not optional here.
set -eux

go build ./...
go vet ./...

# Formatting gate: the whole tree (fixtures included) must be gofmt-clean.
fmt_drift="$(gofmt -l .)"
if [ -n "$fmt_drift" ]; then
    printf 'gofmt gate: files need reformatting:\n%s\n' "$fmt_drift" >&2
    exit 1
fi

# Dependency-hygiene gate: the module is stdlib-only and its require block
# is empty by policy — any tidy drift means a dependency (or stale
# directive) snuck into go.mod.
if ! go mod tidy -diff; then
    echo 'go mod tidy gate: go.mod is not tidy — run "go mod tidy" and inspect the diff' >&2
    exit 1
fi

# Static-analysis gate: iotlint (cmd/iotlint, DESIGN.md sections 10 and
# 15) machine-enforces the repo invariants — no wall clock or global rand
# in deterministic packages, no allocation in or reachable from
# //iot:hotpath functions, fail-closed flow discipline in //iot:failclosed
# functions, copy-on-write around atomic.Pointer publication, metric-name
# grammar, no raw time.Sleep in internal/, context.Context discipline, no
# silently dropped errors. Findings exit non-zero; suppress only with
# "//iot:allow <analyzer> <reason>". -unused-allows keeps the suppression
# inventory honest: a marker no finding matches fails the gate too.
if ! go run ./cmd/iotlint -unused-allows ./...; then
    echo 'iotlint gate: invariant violation — fix it or add "//iot:allow <analyzer> <reason>" (stale allows fail too)' >&2
    exit 1
fi

# Analyzer-suite gate: the linter is load-bearing for every other gate, so
# its own fixtures (// want harness, fixture module, golden JSON, CFG and
# call-graph plumbing) run focused and uncached. Refresh the golden after
# intentional output changes with:
#   go test ./cmd/iotlint/ -run Golden -update
go test -count=1 ./internal/analysis/ ./cmd/iotlint/

go test -race ./...

# Resilience gate: the retry/breaker/health machinery, the degraded-mode
# collector, the chaos harness and the fault-injection campaign are
# timing-sensitive concurrent code — run them focused under the race
# detector (also covered by the blanket -race run above; this keeps a
# fast, named signal when the resilience layer regresses). The campaign
# harness's worker-count and cancellation tables cover the fault row.
go test -race -count=1 ./internal/resilience/
go test -race -count=1 -run 'MultiCollector|Chaos|FailsClosed|Differential' ./internal/core/
go test -race -count=1 -run 'Fault|CampaignDeterminism|CampaignCancelled' ./internal/eval/
go test -race -count=1 -run 'Call|Retry|Timeout|Permanent|Context' ./internal/miio/ ./internal/smartthings/
go test -race -count=1 -run 'Healthz|RetryAfter|ContextTimeout' ./internal/cloud/

# Event-driven collection gate: the epoch store's writers and the
# pointer-read hot path are concurrent by construction — run the push-path
# suites focused under the race detector. The polled-vs-epoch decision
# equivalence runs here too; its worker-count independence is the
# compare row of TestCampaignDeterminism, picked up by the Determinism
# gate below, serial and pinned to one P.
go test -race -count=1 ./internal/epoch/
go test -race -count=1 -run 'Epoch' ./internal/core/ ./internal/cloud/
# The push-ingest rule (epoch.EventTime and epoch.Ingest) is the one rule
# both the epoch store and the fleet apply to a pushed context: the
# store-vs-fleet ingest differential, the rule's verdict table and the
# framework-vs-fleet decision differential run three times over under the
# race detector. So does the same-home hammer: a home's view is rewritten
# in place, and pushes of two widths, heartbeats, batch decisions and
# /v1/fleet/context posts on one home must each see one whole scene.
go test -race -count=3 -run 'Ingest|Differential|SameHome' ./internal/epoch/ ./internal/fleet/ ./internal/core/
go test -race -count=1 -run 'EventPump|STPoller' ./internal/bridge/
go test -count=1 -run 'EpochCampaign' ./internal/eval/

# Observability gate: the metrics registry is lock-free hot-path code wired
# into every subsystem — run its suite focused under the race detector
# (concurrent-hammer + golden-exposition tests), then smoke the fuzz targets
# that guard the Prometheus name/label encoding against hostile input.
go test -race -count=1 ./internal/obs/
go test -count=1 -run '^$' -fuzz '^FuzzMetricName$' -fuzztime 10s ./internal/obs/
go test -count=1 -run '^$' -fuzz '^FuzzLabelEscape$' -fuzztime 10s ./internal/obs/

# Snapshot codec gate: every scene-carrying fleet item is decoded by the
# sensor package's direct JSON scanner and every generated scene encoded
# by its appender — run the package focused under the race detector, then
# smoke the differential fuzz targets that hold both to the reference
# encoding/json codec (same accept/reject verdict, equal snapshots,
# byte-identical re-encoding). Both sides apply the descriptor rule: a
# feature's last value must have the feature's type, and a label must
# come from the feature's domain, or the scene is outside the vocabulary.
go test -race -count=1 ./internal/sensor/
go test -count=1 -run '^$' -fuzz '^FuzzSnapshotJSON$' -fuzztime 10s ./internal/sensor/
go test -count=1 -run '^$' -fuzz '^FuzzValueJSON$' -fuzztime 10s ./internal/sensor/

# Fleet codec gate: every /v1/fleet request body and the authorize
# response are decoded and encoded by the cloud package's envelope codec,
# built on the same jsonwire scanner, through pooled buffers — run the
# package focused under the race detector (the pooled client-buffer hammer
# included), then smoke the differential fuzz targets that hold the codec
# to encoding/json (same verdict, equal values, byte-identical
# re-encoding; arrays decode into fresh elements). The authorize handler's
# pooled request arena is run ten times over under the race detector: one
# tenant's request must never see another's items, serially,
# concurrently, or from an arena put back uncleared. So is the handler
# against the gateway-side replay (Registry.Build plus
# Fleet.AuthorizeBatch over the items the server does not reject) on one
# seeded mixed stream: identical response bytes and decision rings. The
# gateway client's half (shared transport with pooled copy buffers, the
# bounded intern table, body round trips through GetBody, concurrent calls
# on one Client) runs five times over under the race detector.
go test -race -count=1 ./internal/cloud/
# The closed vocabulary: a scene naming a feature outside it, or giving a
# feature a value of another type or a label outside its domain, is
# rejected per item and per push and counted, and reaches no view, trust
# engine or decision; a trusted home's state stays bounded by the
# vocabulary however many names a tenant sends; a decode mark goes with
# its element, so a repeated array drops it; and a rule literal outside
# the vocabulary fails at rule load.
go test -race -count=1 -run 'Vocabulary|UnknownFeature' ./internal/cloud/ ./internal/fleet/ ./internal/trust/ ./internal/automation/
go test -race -count=10 -run '^TestFleetArena' ./internal/cloud/
go test -race -count=10 -run '^TestFleetAuthorizeHandlerDifferential$' ./internal/fleet/
go test -race -count=5 -run '^TestClient' ./internal/cloud/
go test -count=1 -run '^$' -fuzz '^FuzzFleetAuthorizeRequest$' -fuzztime 10s ./internal/cloud/
go test -count=1 -run '^$' -fuzz '^FuzzFleetContextRequest$' -fuzztime 10s ./internal/cloud/
go test -count=1 -run '^$' -fuzz '^FuzzFleetAuthorizeResponse$' -fuzztime 10s ./internal/cloud/
# Registry.Build and the authorize handler under hostile args: deep
# nesting, huge and duplicate keys, out-of-range numbers, non-object
# values. Build must not panic or share the caller's map; the handler
# validates args without decoding them, must reject exactly the bodies
# encoding/json rejects, and must answer every item.
go test -count=1 -run '^$' -fuzz '^FuzzRegistryBuild$' -fuzztime 10s ./internal/instr/
go test -count=1 -run '^$' -fuzz '^FuzzFleetAuthorizeArgs$' -fuzztime 10s ./internal/cloud/

# Fleet gate: the multi-tenant layer is sharded concurrent state shared by
# every tenant — run its whole suite (concurrent push/authorize hammer,
# shard-rebalance and worker-count determinism, COW registry swaps) and the
# cloud fleet endpoints focused under the race detector. The
# framework-vs-fleet differential (one seeded stream through both front
# ends of the shared decision stage, decision for decision) lives in
# internal/core and runs here too. Then drive the real server end to end
# over HTTP with the benchmark's two pinned shapes (bench/, seed 1, about
# 600k decisions each). A run exits non-zero when any of its correctness
# checks fails; its last line must also read "correct":true and its digest
# must match by value. under_attack is the end-to-end trust and sequence
# check as well: all 1021 spoofed homes must land low-trust with zero
# unsafe allows, and the sequence judge must block all 912 chained homes
# with zero unsafe chain allows and zero false blocks. The generator's
# closed-loop digests (284abdb8010ee900, d9b585056f18c11b) are pinned by
# the bench suite's TestGoldenDigests in the bench-module gate below.
go test -race -count=1 ./internal/fleet/
go test -race -count=1 -run 'Differential' ./internal/core/
go test -race -count=1 -run 'Fleet' ./internal/cloud/
bench_out="$(mktemp)"
for shape in bulk_mixed:bdf5ab08a3dcad28 under_attack:9c9f8d454fb61683; do
    workload="${shape%%:*}" digest="${shape#*:}"
    go -C bench run . -workload "$workload" -seed 1 >"$bench_out" ||
        { cat "$bench_out"; echo "bench $workload: a correctness check failed" >&2; exit 1; }
    tail -n 1 "$bench_out" | grep -q '^{"correct":true,' ||
        { echo "bench $workload: last line does not read \"correct\":true" >&2; exit 1; }
    grep -q "^workload $workload .* digest $digest\$" "$bench_out" ||
        { echo "bench $workload: digest is not $digest" >&2; exit 1; }
    if [ "$workload" = bulk_mixed ]; then
        # The compact decision ring: 10k homes set up in at most 30 MB of
        # live heap (65.7 MB with the 96 B slots it replaced).
        heap_mb="$(tail -n 1 "$bench_out" | sed -n 's/.*"setup_heap_mb":{"value":\([0-9.e+-]*\).*/\1/p')"
        awk -v mb="$heap_mb" 'BEGIN { exit !(mb != "" && mb + 0 <= 30) }' ||
            { echo "bench bulk_mixed: setup_heap_mb is '$heap_mb', want at most 30" >&2; exit 1; }
        # Each home owns its context view, and a pushed scene is decoded
        # into the pooled request's scene storage and copied into that
        # view in place, so a push allocates nothing in steady state:
        # about 280 B allocated per decision, server and generator
        # together (about 355 B with 32 B snapshot entries that held a
        # label string, about 565 B with a snapshot, a value set and a view
        # allocated per pushed scene, about 710 B with 48 B string-keyed
        # entries, about 975 B before the client change, about 1440 B with
        # the snapshot hash map). The count repeats within 0.2 % from run
        # to run.
        alloc_b="$(tail -n 1 "$bench_out" | sed -n 's/.*"alloc_bytes_per_decision":{"value":\([0-9.e+-]*\).*/\1/p')"
        awk -v b="$alloc_b" 'BEGIN { exit !(b != "" && b + 0 <= 450) }' ||
            { echo "bench bulk_mixed: alloc_bytes_per_decision is '$alloc_b', want at most 450" >&2; exit 1; }
    fi
done
# bench_out now holds the under_attack run.
for want in '1021 low-trust of 1021 spoofed' '0 sensitive allows for spoofed homes' \
    '912 blocked, 0 allowed, 912 chained homes' '0 benign chained events rejected'; do
    grep -q "check ok .* $want\$" "$bench_out" ||
        { echo "bench under_attack: no passing check '$want'" >&2; exit 1; }
done
rm -f "$bench_out"

# Bench-module gate: bench/ is its own module, so the root vet and test
# runs never enter it. Build and test it here so a fleet or cloud API
# change that breaks the benchmark fails now, not at benchmark time. Its
# suite pins the closed-loop generator digests, among them
# 284abdb8010ee900 (10k homes × 5 steps) and d9b585056f18c11b (500 × 2),
# in TestGoldenDigests, and the HTTP-vs-replay agreement in
# TestHTTPMatchesTracedReplay. The workload digests are checked by the
# pinned runs in the fleet gate above.
go -C bench vet ./...
go -C bench test -count=1 ./...

# Decision-record gate: iotsidd's -audit export is the framework's decision
# ring as JSON lines with each explanation rendered from the tree leaf the
# decision recorded. A seeded 24 h run is deterministic: 45 decisions, 34
# allowed and 11 rejected, a tree rejection's explanation ends in the
# illegal class, and the export is pinned byte for byte by its sha256.
audit="$(mktemp)"
go run ./cmd/iotsidd -hours 24 -attack-every 2h -audit "$audit" >/dev/null
audit_total="$(wc -l <"$audit")"
audit_allowed="$(grep -c '"allowed":true' "$audit" || true)"
audit_rejected="$(grep -c '"allowed":false' "$audit" || true)"
if [ "$audit_total" -ne 45 ] || [ "$audit_allowed" -ne 34 ] || [ "$audit_rejected" -ne 11 ]; then
    echo "iotsidd audit smoke: $audit_total decisions ($audit_allowed allowed, $audit_rejected rejected), want 45 (34, 11)" >&2
    rm -f "$audit"
    exit 1
fi
if ! grep '"allowed":false' "$audit" | grep -q 'class 0"}}$'; then
    echo 'iotsidd audit smoke: no rejected decision explains itself with the illegal class' >&2
    rm -f "$audit"
    exit 1
fi
audit_sha="$(sha256sum "$audit" | cut -d' ' -f1)"
if [ "$audit_sha" != 4afc95d0921b4c3422cf45c1a5a4eedcb4e9ae2dc274d9999de605891db9f26f ]; then
    echo "iotsidd audit smoke: export sha256 is $audit_sha, want 4afc95d0921b4c3422cf45c1a5a4eedcb4e9ae2dc274d9999de605891db9f26f" >&2
    rm -f "$audit"
    exit 1
fi
rm -f "$audit"

# Sensor-trust gate: the trust engine is lock-free hot-path state observed
# from every push path — run its suite (property tests included) under the
# race detector, then the trust wiring in core, fleet and cloud, then the
# spoofing campaign (replay / slow-drift / stuck-at / spike must all land
# zero unsafe allows). The fuzz smokes guard the invariant evaluator and
# the Observe scoring path against hostile snapshots. The fail-closed
# contract end to end over HTTP is the fleet gate's under_attack bench run
# (1021 spoofed homes, all low-trust, zero unsafe allows).
go test -race -count=1 ./internal/trust/
go test -race -count=1 -run 'Trust' ./internal/core/ ./internal/fleet/ ./internal/cloud/
go test -count=1 -run 'Spoof' ./internal/eval/
go test -count=1 -run '^$' -fuzz '^FuzzInvariants$' -fuzztime 10s ./internal/trust/
go test -count=1 -run '^$' -fuzz '^FuzzObserve$' -fuzztime 10s ./internal/trust/

# Sequence gate: the temporal axis judges instruction/state history through
# a per-home tracker mutated on every decision — run its package and the
# combined-verdict wiring in core, fleet and cloud under the race detector,
# then the sequence campaign (tree-only must allow the temporal attacks,
# tree+sequence must block them all at 100% clean availability). The fuzz
# smoke hardens ObserveJudge against hostile scenes (NaN hours, zero and
# backwards timestamps, unknown models). The same-tick chain failing closed
# end to end over HTTP is the fleet gate's under_attack bench run (912
# chained homes, all blocked, zero unsafe chain allows, zero false blocks).
go test -race -count=1 ./internal/seq/
go test -race -count=1 -run 'Seq' ./internal/core/ ./internal/fleet/ ./internal/cloud/
go test -count=1 -run 'SeqCampaign' ./internal/eval/
go test -count=1 -run '^$' -fuzz '^FuzzSequenceObserve$' -fuzztime 10s ./internal/seq/

# Coverage gate: no package may fall below its recorded floor
# (coverage_floors.txt; internal/obs carries a hard 90% minimum). The race
# detector is off here so the allocation-count gates run too.
# POSIX sh has no pipefail, so piping go test through tee would let a
# test failure vanish behind tee's exit 0 under set -e — capture the
# test's own status explicitly and fail on it before the floor check.
cov="$(mktemp)"
cov_status=0
go test -count=1 -cover ./internal/... >"$cov" 2>&1 || cov_status=$?
cat "$cov"
if [ "$cov_status" -ne 0 ]; then
    echo "coverage gate: go test failed (exit $cov_status)" >&2
    rm -f "$cov"
    exit "$cov_status"
fi
awk 'NR==FNR { if ($1 !~ /^#/ && NF >= 2) floor[$1]=$2; next }
     $1=="ok" && $4=="coverage:" && ($2 in floor) {
       pct=$5; sub(/%/, "", pct); seen[$2]=1
       if (pct+0 < floor[$2]+0) { printf "coverage regression: %s %s%% < floor %s%%\n", $2, pct, floor[$2]; bad=1 }
     }
     END { for (p in floor) if (!(p in seen)) { printf "coverage gate: no result for %s\n", p; bad=1 } exit bad }' \
    coverage_floors.txt "$cov"
rm -f "$cov"

# Deterministic-parallelism gate: the serial-vs-parallel golden-equality
# tests (Train, BuildAll, CrossValidate, forest.Fit, the suite, every
# campaign row, seeded retry jitter) must pass both under the default
# scheduler and pinned to a single P. If the GOMAXPROCS=1 run and the
# default run disagree, one of them fails these equality tests and the
# build breaks here. The 'Determinism' pattern matches the resilience
# layer's TestScheduleDeterminism and TestChaosPlanDeterminism and the
# campaign harness's TestCampaignDeterminism as well.
go test -count=1 -run 'Determinism|Memoized' ./internal/...
GOMAXPROCS=1 go test -count=1 -run 'Determinism|Memoized' ./internal/...
