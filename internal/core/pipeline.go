package core

import (
	"fmt"
	"sync"
	"time"

	"iotsid/internal/dataset"
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
	ReasonUnjudged   = "sensitive instruction rejected (fail closed): no trained context model can judge it"
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
// position implies, packed to 24 B with no pointers, so a fleet's rings —
// one per home — are allocated noscan and cost the collector nothing. The
// context time is Unix nanoseconds (0 for none); the model is its ordinal
// in dataset.Models() (0 for none); the strings and the judging entry are
// indices into the ring's intern tables (0 for "" and nil).
type logSlot struct {
	at      int64
	leaf    int32
	op      uint16
	device  uint16
	reason  uint16
	missing uint16
	entry   uint16
	model   uint8
	flags   uint8 // allowed, sensitive, outcome << 2, state << 4
}

const (
	flagAllowed   = 1 << 0
	flagSensitive = 1 << 1
)

// ringModels is the model ordinal table: slot model i is ringModels[i-1].
var ringModels = dataset.Models()

// MaxLogCapacity is the largest decision ring a pipeline holds: a slot's
// four strings index a table of at most 4×capacity live values, and the
// indices are 16 bits.
const MaxLogCapacity = (1<<16-1)/4 - 1

// PipelineConfig wires one decision stage.
type PipelineConfig struct {
	// Judger is the compiled-tree determiner; shared across pipelines.
	Judger *Judger
	// Sequence, when non-nil, arms the temporal sequence judge over this
	// pipeline's own history ring.
	Sequence *seq.Set
	// LogCapacity bounds the decision ring, at most MaxLogCapacity; zero
	// retains nothing.
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
// it without a second allocation per home. The ring is allocated in full
// here; a capacity outside [0, MaxLogCapacity] panics.
func NewPipeline(cfg PipelineConfig) Pipeline {
	if cfg.LogCapacity < 0 || cfg.LogCapacity > MaxLogCapacity {
		panic(fmt.Sprintf("core: decision ring capacity %d outside [0, %d]", cfg.LogCapacity, MaxLogCapacity))
	}
	return Pipeline{
		judger: cfg.Judger,
		seq:    cfg.Sequence,
		log:    decisionLog{buf: make([]logSlot, cfg.LogCapacity)},
		now:    cfg.Now,
	}
}

// Decide answers one instruction against the front end's context. A
// degraded context fails a sensitive instruction closed with the state's
// interned reason (why, when non-nil, is what Explain returns), as does a
// tree that cannot judge it (unjudged); otherwise the tree judges, and the
// sequence judge may then revoke an allow — never grant one. Every
// decision lands in the ring; only judged decisions extend the sequence
// history.
//
//iot:hotpath
//iot:failclosed
func (p *Pipeline) Decide(in instr.Instruction, snap sensor.Snapshot, state ContextState, why *string) Decision {
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
		return dec
	}
	dec, err := p.judger.Judge(in, snap)
	dec.State = state
	switch {
	case err != nil:
		dec = unjudged(err, state)
	case p.seq != nil:
		at := snap.At
		if at.IsZero() {
			at = p.now()
		}
		if v := p.seq.ObserveJudge(&p.track, dec.Model, dec.Sensitive, dec.Allowed, snap, at); v.Anomalous {
			dec = Decision{Sensitive: true, Outcome: OutcomeSeqAnomaly, State: state, Model: dec.Model, Reason: ReasonSeqAnomaly}
		}
	}
	p.log.append(in, snap, dec)
	return dec
}

// unjudged fails closed a sensitive instruction (Judge errs on no other)
// that the tree could not judge. A scene lacking a feature the model reads
// is missing context, explained without allocating by the error's static
// text; any other fault (no trained model, a value of the wrong type) is
// ReasonUnjudged, explained by the error. judgeLeaf returns the error
// bare, and errors.As would move its target to the heap.
//
//iot:failclosed
func unjudged(err error, state ContextState) Decision {
	if mf, ok := err.(*dataset.MissingFeatureError); ok {
		return Decision{Sensitive: true, Outcome: OutcomeFailClosed, State: ContextMissing, Model: mf.Model,
			Reason: ReasonMissing, missing: &mf.Text}
	}
	why := err.Error()
	return Decision{Sensitive: true, Outcome: OutcomeFailClosed, State: state, Reason: ReasonUnjudged, missing: &why}
}

// Log returns a copy of the retained decisions, oldest first.
func (p *Pipeline) Log() []LogEntry { return p.log.snapshot() }

// decisionLog is a bounded ring of decisions under one mutex: a home's
// audit tail. It never grows; once full, each append overwrites the
// oldest entry. The intern tables the slots index into are built on the
// first append and grow only on first sight of a value.
type decisionLog struct {
	mu     sync.Mutex
	buf    []logSlot
	next   uint64
	tables *ringTables

	// metrics surfaces the ring to the metrics layer (nil, a no-op,
	// unless the front end instruments it).
	metrics *logMetrics
}

// logMetrics counts a ring's appends and the oldest entries they
// overwrote.
type logMetrics struct {
	appends   *obs.Counter
	evictions *obs.Counter
}

// ringTables holds the values a ring's slots reference by index. A slot
// references at most four strings and one entry, so the tables hold at
// most 4×capacity and capacity live values; a value is dropped as soon as
// the last slot referencing it is overwritten.
type ringTables struct {
	strs    intern[string]
	entries intern[*Entry]
}

// append records one decision (no-op at zero capacity). The evicted
// slot's references are released before the new ones are taken, which
// keeps each table within its bound.
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
	var missing string
	if dec.missing != nil {
		missing = *dec.missing
	}
	l.mu.Lock()
	if l.tables == nil {
		l.tables = new(ringTables) //iot:allow hotcall once per ring, on its first decision
	}
	t := l.tables
	n := uint64(len(l.buf))
	s := &l.buf[l.next%n]
	evicted := l.next >= n
	if evicted {
		t.strs.release(s.op)
		t.strs.release(s.device)
		t.strs.release(s.reason)
		t.strs.release(s.missing)
		t.entries.release(s.entry)
	}
	var prev logSlot // the newest slot: its indices are the likeliest hits
	if l.next > 0 {
		prev = l.buf[(l.next-1)%n]
	}
	*s = logSlot{
		at:      at,
		leaf:    dec.leaf,
		op:      t.strs.acquire(in.Op, prev.op),
		device:  t.strs.acquire(in.DeviceID, prev.device),
		reason:  t.strs.acquire(dec.Reason, prev.reason),
		missing: t.strs.acquire(missing, prev.missing),
		entry:   t.entries.acquire(dec.entry, prev.entry),
		model:   modelOrdinal(dec.Model),
		flags:   packFlags(dec),
	}
	l.next++
	l.mu.Unlock()
	if m := l.metrics; m != nil {
		m.appends.Inc()
		if evicted {
			m.evictions.Inc()
		}
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
	t := l.tables
	for j := n - retained; j < n; j++ {
		s := &l.buf[j%uint64(len(l.buf))]
		e := LogEntry{Seq: j + 1, Op: t.strs.get(s.op), DeviceID: t.strs.get(s.device), Decision: Decision{
			Allowed:   s.flags&flagAllowed != 0,
			Sensitive: s.flags&flagSensitive != 0,
			Outcome:   Outcome(s.flags >> 2 & 3),
			State:     ContextState(s.flags >> 4 & 3),
			leaf:      s.leaf,
			Reason:    t.strs.get(s.reason),
			entry:     t.entries.get(s.entry),
		}}
		if s.model != 0 {
			e.Decision.Model = ringModels[s.model-1]
		}
		if s.missing != 0 {
			why := t.strs.get(s.missing)
			e.Decision.missing = &why
		}
		if s.at != 0 {
			e.At = time.Unix(0, s.at).UTC()
		}
		out = append(out, e)
	}
	return out
}

// packFlags packs a decision's verdict, outcome and context state into
// one byte.
//
//iot:hotpath
func packFlags(d Decision) uint8 {
	f := uint8(d.Outcome)<<2 | uint8(d.State)<<4
	if d.Allowed {
		f |= flagAllowed
	}
	if d.Sensitive {
		f |= flagSensitive
	}
	return f
}

// modelOrdinal is m's slot ordinal: its position in dataset.Models() plus
// one, or 0 for no model. Decisions name only those models, because the
// judge picks one by dataset.ModelForCategory.
//
//iot:hotpath
func modelOrdinal(m dataset.Model) uint8 {
	for i, x := range ringModels {
		if x == m {
			return uint8(i + 1)
		}
	}
	return 0
}

// internScanMax is the table size past which lookups go through a map
// instead of a scan; a fleet home's tables stay below it.
const internScanMax = 64

// intern maps values to 16-bit indices, 0 being the zero value. Each live
// value counts the slot fields referencing it; a value whose count falls
// to zero is cleared, so the table keeps nothing alive that no slot
// references, and its index is reused before the table grows.
type intern[T comparable] struct {
	vals  []T          // index i holds vals[i-1]; zero once released
	refs  []uint16     // references to each live value; a released index holds the next free one
	index map[T]uint16 // value to index, built once vals passes internScanMax
	free  uint16       // the most recently released index, 0 for none
}

// acquire returns v's index, adding v on first sight, and counts one more
// reference to it. hint is a likely index, checked first.
//
//iot:hotpath
func (t *intern[T]) acquire(v T, hint uint16) uint16 {
	var zero T
	if v == zero {
		return 0
	}
	i := t.find(v, hint)
	if i == 0 {
		i = t.add(v) //iot:allow hotcall a table grows only on first sight of a value
	}
	t.refs[i-1]++
	return i
}

// find returns v's index, or 0 when the table does not hold it. A
// released index holds the zero value, which v never is.
//
//iot:hotpath
func (t *intern[T]) find(v T, hint uint16) uint16 {
	if hint != 0 && t.vals[hint-1] == v {
		return hint
	}
	if t.index != nil {
		return t.index[v]
	}
	for i, x := range t.vals {
		if x == v {
			return uint16(i + 1)
		}
	}
	return 0
}

// add stores a value the table does not hold, with no references yet, at
// a released index when there is one.
func (t *intern[T]) add(v T) uint16 {
	i := t.free
	if i != 0 {
		t.free = t.refs[i-1]
		t.refs[i-1] = 0
		t.vals[i-1] = v
	} else {
		if len(t.vals) == cap(t.vals) {
			// Grow by a quarter, not double: a fleet multiplies each
			// home's spare capacity by its homes.
			n := len(t.vals) + len(t.vals)/4 + 4
			t.vals = append(make([]T, 0, n), t.vals...)
			t.refs = append(make([]uint16, 0, n), t.refs...)
		}
		t.vals = append(t.vals, v)
		t.refs = append(t.refs, 0)
		i = uint16(len(t.vals))
	}
	switch {
	case t.index != nil:
		t.index[v] = i
	case len(t.vals) > internScanMax:
		var zero T
		t.index = make(map[T]uint16, len(t.vals))
		for j, x := range t.vals {
			if x != zero {
				t.index[x] = uint16(j + 1)
			}
		}
	}
	return i
}

// release drops one reference to index i, clearing the value and freeing
// the index when it was the last.
//
//iot:hotpath
func (t *intern[T]) release(i uint16) {
	if i == 0 {
		return
	}
	if t.refs[i-1]--; t.refs[i-1] > 0 {
		return
	}
	var zero T
	if t.index != nil {
		delete(t.index, t.vals[i-1])
	}
	t.vals[i-1] = zero
	t.refs[i-1] = t.free
	t.free = i
}

// get returns the value at index i.
func (t *intern[T]) get(i uint16) T {
	var zero T
	if i == 0 {
		return zero
	}
	return t.vals[i-1]
}
