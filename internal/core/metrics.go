package core

import (
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/resilience"
)

// Metric names the core layer owns. The naming scheme (DESIGN
// §Observability): iotsid_<subsystem>_<what>_<unit|total>, label values
// carry the variable part (outcome, source, state) so family cardinality
// stays fixed and every series can be pre-registered.
const (
	metricDecisions    = "iotsid_authz_decisions_total"
	metricSeqAnomalies = "iotsid_authz_seq_anomalies_total"
	metricAuthzLatency = "iotsid_authz_latency_seconds"
	metricLogAppends   = "iotsid_decision_log_appends_total"
	metricLogEvictions = "iotsid_decision_log_evictions_total"
	metricSourceState  = "iotsid_collector_source_collects_total"
	metricRetries      = "iotsid_collector_retry_attempts_total"
	metricBreaker      = "iotsid_breaker_transitions_total"
)

// frameworkMetrics holds the framework's pre-registered series: a direct
// pointer per (outcome, sensitivity) cell plus the latency histogram, so
// the Authorize hot path counts itself with two atomic adds and zero
// lookups. A nil *frameworkMetrics disables instrumentation entirely —
// every method is nil-receiver safe.
type frameworkMetrics struct {
	decisions    [OutcomeCount][2]*obs.Counter // [outcome][sensitive]
	latency      *obs.Histogram
	seqAnomalies *obs.Counter
}

// newFrameworkMetrics pre-registers the authorization series.
func newFrameworkMetrics(reg *obs.Registry) *frameworkMetrics {
	if reg == nil {
		return nil
	}
	dec := reg.NewCounterVec(metricDecisions,
		"Authorization decisions by outcome (allow, reject, fail_closed) and instruction sensitivity.",
		"outcome", "sensitive")
	m := &frameworkMetrics{
		latency: reg.NewHistogram(metricAuthzLatency,
			"End-to-end Framework.Authorize latency (collect + judge + log), seconds.",
			obs.LatencyBuckets),
		seqAnomalies: reg.NewCounter(metricSeqAnomalies,
			"Sensitive instructions rejected by the sequence judge after the static tree allowed them."),
	}
	for o, label := range OutcomeLabels {
		m.decisions[o][0] = dec.With(label, "false")
		m.decisions[o][1] = dec.With(label, "true")
	}
	return m
}

// boolIdx maps a sensitivity flag onto the counter matrix column.
func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// observeDecision counts one decision in its outcome row; a sequence
// anomaly also counts in the anomaly family.
func (m *frameworkMetrics) observeDecision(out Outcome, sensitive bool) {
	if m == nil {
		return
	}
	m.decisions[out][boolIdx(sensitive)].Inc()
	if out == OutcomeSeqAnomaly {
		m.seqAnomalies.Inc()
	}
}

// observeLatency records one Authorize round trip.
func (m *frameworkMetrics) observeLatency(d time.Duration) {
	if m == nil {
		return
	}
	m.latency.Observe(d.Seconds())
}

// BreakerTransitionHook returns a resilience.BreakerConfig.OnStateChange
// hook that counts transitions into iotsid_breaker_transitions_total,
// labeled by breaker name and target state. The three target-state series
// are pre-registered here, so the hook itself (which runs under the
// breaker's lock) is two array index loads and an atomic add.
func BreakerTransitionHook(reg *obs.Registry, name string) func(from, to resilience.State) {
	if reg == nil {
		return nil
	}
	vec := reg.NewCounterVec(metricBreaker,
		"Circuit breaker state transitions by breaker name and target state.",
		"name", "to")
	var cells [3]*obs.Counter
	cells[resilience.StateClosed] = vec.With(name, "closed")
	cells[resilience.StateOpen] = vec.With(name, "open")
	cells[resilience.StateHalfOpen] = vec.With(name, "half_open")
	return func(_, to resilience.State) {
		if int(to) >= 0 && int(to) < len(cells) {
			cells[to].Inc()
		}
	}
}
