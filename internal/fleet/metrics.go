package fleet

import (
	"strconv"

	"iotsid/internal/core"
	"iotsid/internal/epoch"
	"iotsid/internal/obs"
)

// Metric names the fleet layer owns. Label cardinality follows the repo's
// pre-registration rule: the shard label is bounded by the configured shard
// count, and no family carries a home label — one would make the
// exposition scale with the fleet.
const (
	metricHomes        = "iotsid_fleet_homes"
	metricPushes       = "iotsid_fleet_context_pushes_total"
	metricPushDrops    = "iotsid_fleet_context_pushes_dropped_total"
	metricDecisions    = "iotsid_fleet_decisions_total"
	metricBatches      = "iotsid_fleet_batches_total"
	metricBatchItems   = "iotsid_fleet_batch_items_total"
	metricSeqAnomalies = "iotsid_fleet_seq_anomalies_total"
)

// fleetMetrics holds the fleet's pre-registered series: one
// (shard, outcome) counter cell per shard so the hot path counts itself
// with a single atomic add and zero lookups. A nil *fleetMetrics disables
// instrumentation; every method is nil-receiver safe.
type fleetMetrics struct {
	homes        *obs.Gauge
	pushes       *obs.Counter
	pushDrops    [len(epoch.DropReasons)]*obs.Counter // by epoch.Verdict
	decisions    [][core.OutcomeCount]*obs.Counter    // [shard][outcome]
	batches      *obs.Counter
	batchItems   *obs.Counter
	seqAnomalies *obs.Counter
}

// newFleetMetrics pre-registers the fleet series for a given shard count.
func newFleetMetrics(reg *obs.Registry, shards int) *fleetMetrics {
	if reg == nil {
		return nil
	}
	m := &fleetMetrics{
		homes: reg.NewGauge(metricHomes,
			"Homes currently registered with the fleet."),
		pushes: reg.NewCounter(metricPushes,
			"Per-home sensor context pushes accepted by the fleet."),
		batches: reg.NewCounter(metricBatches,
			"Fleet AuthorizeBatch invocations."),
		batchItems: reg.NewCounter(metricBatchItems,
			"Instructions carried by fleet AuthorizeBatch invocations."),
		seqAnomalies: reg.NewCounter(metricSeqAnomalies,
			"Sensitive instructions rejected fleet-wide by the sequence judge after the static tree allowed them."),
	}
	drops := reg.NewCounterVec(metricPushDrops,
		"Per-home sensor context pushes dropped by reason (out_of_order: event time behind the home's current context; zero_value: absent/null feature value).",
		"reason")
	for v := epoch.OutOfOrder; int(v) < len(epoch.DropReasons); v++ {
		m.pushDrops[v] = drops.With(epoch.DropReasons[v])
	}
	vec := reg.NewCounterVec(metricDecisions,
		"Authorization decisions by fleet shard and outcome (allow, reject, fail_closed).",
		"shard", "outcome")
	m.decisions = make([][core.OutcomeCount]*obs.Counter, shards)
	for s := 0; s < shards; s++ {
		label := strconv.Itoa(s)
		for o, name := range core.OutcomeLabels {
			m.decisions[s][o] = vec.With(label, name)
		}
	}
	return m
}

// observeDecision counts one judged decision on its shard row.
//
//iot:hotpath
func (m *fleetMetrics) observeDecision(shard uint32, out core.Outcome) {
	if m == nil {
		return
	}
	m.decisions[shard][out].Inc()
	if out == core.OutcomeSeqAnomaly {
		m.seqAnomalies.Inc()
	}
}

// observePush counts one accepted context push.
//
//iot:hotpath
func (m *fleetMetrics) observePush() {
	if m == nil {
		return
	}
	m.pushes.Inc()
}

// observeDrop counts one push the ingest rule dropped, by its verdict.
//
//iot:hotpath
func (m *fleetMetrics) observeDrop(v epoch.Verdict) {
	if m == nil {
		return
	}
	m.pushDrops[v].Inc()
}

// observeBatch counts one batch and its item load.
func (m *fleetMetrics) observeBatch(items int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchItems.Add(uint64(items))
}

// observeHomes tracks the registered-home gauge.
func (m *fleetMetrics) observeHomes(n int64) {
	if m == nil {
		return
	}
	m.homes.Set(n)
}
