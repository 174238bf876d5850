package core

import (
	"sync"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// ContextState is what a front end learned about its sensor context
// before judging: usable, or degraded in one of three ways. Framework
// derives it from a pull's provenance, each fleet home from its pushed
// view; the decision stage turns a degraded state into the same
// fail-closed decision for both.
type ContextState uint8

// The context states a front end can report.
const (
	ContextOK       ContextState = iota
	ContextMissing               // a required source contributed nothing
	ContextStale                 // the context is beyond its freshness budget
	ContextLowTrust              // a required source sits below its trust threshold
)

// Degraded reports whether sensitive instructions must fail closed.
func (s ContextState) Degraded() bool { return s != ContextOK }

// Interned fail-closed reasons, shared by every authorization path so a
// dashboard or test matches one string per cause.
const (
	ReasonMissing    = "sensitive instruction rejected (fail closed): required sensor source(s) unavailable"
	ReasonStale      = "sensitive instruction rejected (fail closed): sensor context is beyond its freshness budget"
	ReasonLowTrust   = "sensitive instruction rejected (fail closed): required sensor source(s) below trust threshold"
	ReasonSeqAnomaly = "sensitive instruction rejected (fail closed): instruction sequence outside trained temporal profile"
)

// Outcome is how the decision stage decided: the counter row a front end
// records the decision in.
type Outcome uint8

// OutcomeSeqAnomaly is a reject made by the sequence judge after the tree
// allowed; it counts as "reject" and also in the front end's anomaly
// family.
const (
	OutcomeAllow Outcome = iota
	OutcomeReject
	OutcomeFailClosed
	OutcomeSeqAnomaly
	OutcomeCount
)

// OutcomeLabels maps each outcome to its metric label value.
var OutcomeLabels = [OutcomeCount]string{"allow", "reject", "fail_closed", "reject"}

// LogEntry is one retained authorisation, copied out of the ring. Seq
// numbers a pipeline's decisions from 1 in the order they were logged; At
// is the judged context's time, zero when the snapshot carried none.
type LogEntry struct {
	Seq      uint64    `json:"seq"`
	At       time.Time `json:"at"`
	Op       string    `json:"op"`
	DeviceID string    `json:"device_id"`
	Decision Decision  `json:"decision"`
}

// logSlot is one ring cell: a LogEntry without its Seq, which the ring
// position implies, and with the context time as Unix nanoseconds (0 for
// none), so a slot stays 96 B — a fleet holds one ring per home.
type logSlot struct {
	op       string
	deviceID string
	at       int64
	dec      Decision
}

// PipelineConfig wires one decision stage.
type PipelineConfig struct {
	// Judger is the compiled-tree determiner; shared across pipelines.
	Judger *Judger
	// Sequence, when non-nil, arms the temporal sequence judge over this
	// pipeline's own history ring.
	Sequence *seq.Set
	// LogCapacity bounds the decision ring; zero retains nothing.
	LogCapacity int
	// Now stamps sequence events whose snapshot carries no time.
	Now func() time.Time
}

// Pipeline is the post-context half of authorization for one home:
// degraded gate, compiled-tree judge, sequence judge, decision ring.
// Front ends (Framework, each fleet Home) embed one, resolve their context
// and call Decide; they count the returned outcome into their own metric
// families. A Pipeline holds locks: build it in place with NewPipeline and
// never copy it afterwards.
type Pipeline struct {
	judger *Judger
	seq    *seq.Set
	track  seq.Tracker
	log    decisionLog
	now    func() time.Time
}

// NewPipeline builds a decision stage, by value so a front end can embed
// it without a second allocation per home.
func NewPipeline(cfg PipelineConfig) Pipeline {
	return Pipeline{
		judger: cfg.Judger,
		seq:    cfg.Sequence,
		log:    decisionLog{buf: make([]logSlot, cfg.LogCapacity)},
		now:    cfg.Now,
	}
}

// Decide judges one instruction against the front end's context. A
// degraded context fails a sensitive instruction closed with the state's
// interned reason (why, when non-nil, is what Explain returns); everything
// else is judged by the tree, and the sequence judge may then revoke an
// allow — never grant one. Every decision lands in the ring; only judged
// decisions extend the sequence history.
//
//iot:hotpath
//iot:failclosed
func (p *Pipeline) Decide(in instr.Instruction, snap sensor.Snapshot, state ContextState, why *string) (Decision, error) {
	if state.Degraded() && p.judger.detector.IsSensitive(in) {
		reason := ReasonMissing
		switch state {
		case ContextStale:
			reason = ReasonStale
		case ContextLowTrust:
			reason = ReasonLowTrust
		}
		dec := Decision{Sensitive: true, Outcome: OutcomeFailClosed, State: state, Reason: reason, missing: why}
		p.log.append(in, snap, dec)
		return dec, nil
	}
	dec, err := p.judger.Judge(in, snap)
	if err != nil {
		return Decision{}, err
	}
	dec.State = state
	if p.seq != nil {
		at := snap.At
		if at.IsZero() {
			at = p.now()
		}
		if v := p.seq.ObserveJudge(&p.track, dec.Model, dec.Sensitive, dec.Allowed, snap, at); v.Anomalous {
			dec = Decision{Sensitive: true, Outcome: OutcomeSeqAnomaly, State: state, Model: dec.Model, Reason: ReasonSeqAnomaly}
		}
	}
	p.log.append(in, snap, dec)
	return dec, nil
}

// Log returns a copy of the retained decisions, oldest first.
func (p *Pipeline) Log() []LogEntry { return p.log.snapshot() }

// LogRecent returns the newest n retained decisions, oldest first.
func (p *Pipeline) LogRecent(n int) []LogEntry { return p.log.recent(n) }

// decisionLog is a bounded ring of decisions under one mutex: a home's
// audit tail. It never grows; once full, each append overwrites the
// oldest entry.
type decisionLog struct {
	mu   sync.Mutex
	buf  []logSlot
	next uint64

	// appends/evictions surface the ring to the metrics layer (nil, a
	// no-op, unless the front end instruments it).
	appends   *obs.Counter
	evictions *obs.Counter
}

// append records one decision (no-op at zero capacity).
//
//iot:hotpath
func (l *decisionLog) append(in instr.Instruction, snap sensor.Snapshot, dec Decision) {
	if len(l.buf) == 0 {
		return
	}
	var at int64
	if !snap.At.IsZero() {
		at = snap.At.UnixNano()
	}
	l.mu.Lock()
	evicted := l.next >= uint64(len(l.buf))
	l.buf[l.next%uint64(len(l.buf))] = logSlot{op: in.Op, deviceID: in.DeviceID, at: at, dec: dec}
	l.next++
	l.mu.Unlock()
	l.appends.Inc()
	if evicted {
		l.evictions.Inc()
	}
}

// snapshot copies the retained entries out, oldest first, numbering each
// from its ring position.
func (l *decisionLog) snapshot() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	retained := min(n, uint64(len(l.buf)))
	out := make([]LogEntry, 0, retained)
	for j := n - retained; j < n; j++ {
		s := &l.buf[j%uint64(len(l.buf))]
		e := LogEntry{Seq: j + 1, Op: s.op, DeviceID: s.deviceID, Decision: s.dec}
		if s.at != 0 {
			e.At = time.Unix(0, s.at).UTC()
		}
		out = append(out, e)
	}
	return out
}

// recent returns the newest n retained entries, oldest first.
func (l *decisionLog) recent(n int) []LogEntry {
	all := l.snapshot()
	n = min(max(n, 0), len(all))
	return all[len(all)-n:]
}
